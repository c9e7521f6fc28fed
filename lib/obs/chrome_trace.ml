type span = Instrument.span

(* Every event belongs to the one traced process. *)
let pid = 1

(* Duration events ("B"/"E") must nest properly per tid: each "E" closes
   the most recent open "B" on that track.  The probes are designed so
   spans on one track are sequential or properly nested; the stack walk
   below emits the pairs in an order any trace viewer's stable
   sort-by-timestamp preserves. *)

let event ~cycle_us ph ts (s : span) =
  Json.Obj
    [
      ("name", Json.String s.name);
      ("cat", Json.String s.cat);
      ("ph", Json.String ph);
      ("ts", Json.Float (float_of_int ts *. cycle_us));
      ("pid", Json.Int pid);
      ("tid", Json.Int s.track);
    ]

let track_events ~cycle_us spans =
  let sorted =
    List.stable_sort
      (fun (a : span) (b : span) -> compare (a.t0, -a.t1) (b.t0, -b.t1))
      spans
  in
  let out = ref [] in
  let stack = ref [] in
  let emit ev = out := ev :: !out in
  List.iter
    (fun (s : span) ->
      let rec close () =
        match !stack with
        | top :: rest when top.Instrument.t1 <= s.t0 ->
          emit (event ~cycle_us "E" top.t1 top);
          stack := rest;
          close ()
        | _ -> ()
      in
      close ();
      emit (event ~cycle_us "B" s.t0 s);
      stack := s :: !stack)
    sorted;
  List.iter (fun (s : span) -> emit (event ~cycle_us "E" s.t1 s)) !stack;
  List.rev !out

(* A metadata event naming the process (tid 0) or one track. *)
let metadata kind tid name =
  Json.Obj
    [
      ("name", Json.String kind);
      ("ph", Json.String "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("args", Json.Obj [ ("name", Json.String name) ]);
    ]

let to_json ?(cycle_us = 1.0) ~process_name ?(thread_names = []) spans =
  let tracks =
    List.sort_uniq compare
      (List.map (fun (s : span) -> s.track) spans @ List.map fst thread_names)
  in
  let thread_name track =
    match List.assoc_opt track thread_names with
    | Some n -> n
    | None -> Printf.sprintf "t%d" track
  in
  let track_spans track = List.filter (fun (s : span) -> s.track = track) spans in
  Json.Obj
    [
      ( "traceEvents",
        Json.Arr
          (metadata "process_name" 0 process_name
           :: List.map
                (fun track -> metadata "thread_name" track (thread_name track))
                tracks
          @ List.concat_map
              (fun track -> track_events ~cycle_us (track_spans track))
              tracks) );
      ("displayTimeUnit", Json.String "ms");
    ]
