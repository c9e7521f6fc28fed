type span = Instrument.span

(* Every event belongs to the one traced process. *)
let pid = 1

(* Duration events ("B"/"E") must nest properly per tid: each "E" closes
   the most recent open "B" on that track.  The probes are designed so
   spans on one track are sequential or properly nested; the stack walk
   below emits the pairs in an order any trace viewer's stable
   sort-by-timestamp preserves. *)

let b_event ~cycle_us (s : span) =
  Json.Obj
    [
      ("name", Json.String s.name);
      ("cat", Json.String s.cat);
      ("ph", Json.String "B");
      ("ts", Json.Float (float_of_int s.t0 *. cycle_us));
      ("pid", Json.Int pid);
      ("tid", Json.Int s.track);
    ]

let e_event ~cycle_us (s : span) =
  Json.Obj
    [
      ("name", Json.String s.name);
      ("cat", Json.String s.cat);
      ("ph", Json.String "E");
      ("ts", Json.Float (float_of_int s.t1 *. cycle_us));
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
          emit (e_event ~cycle_us top);
          stack := rest;
          close ()
        | _ -> ()
      in
      close ();
      emit (b_event ~cycle_us s);
      stack := s :: !stack)
    sorted;
  List.iter (fun s -> emit (e_event ~cycle_us s)) !stack;
  List.rev !out

let metadata ~process_name ~thread_names tracks =
  let process =
    Json.Obj
      [
        ("name", Json.String "process_name");
        ("ph", Json.String "M");
        ("pid", Json.Int pid);
        ("tid", Json.Int 0);
        ("args", Json.Obj [ ("name", Json.String process_name) ]);
      ]
  in
  let thread track =
    let name =
      match List.assoc_opt track thread_names with
      | Some n -> n
      | None -> Printf.sprintf "t%d" track
    in
    Json.Obj
      [
        ("name", Json.String "thread_name");
        ("ph", Json.String "M");
        ("pid", Json.Int pid);
        ("tid", Json.Int track);
        ("args", Json.Obj [ ("name", Json.String name) ]);
      ]
  in
  process :: List.map thread tracks

let events ?(cycle_us = 1.0) ?(process_name = "firefly-sim")
    ?(thread_names = []) (snap : Instrument.snapshot) =
  let tracks =
    List.sort_uniq compare
      (List.map (fun (s : span) -> s.track) snap.spans
      @ List.map fst thread_names)
  in
  let span_events =
    List.concat_map
      (fun track ->
        track_events ~cycle_us
          (List.filter (fun (s : span) -> s.track = track) snap.spans))
      tracks
  in
  metadata ~process_name ~thread_names tracks @ span_events

let to_json ?cycle_us ?process_name ?thread_names snap =
  Json.Obj
    [
      ( "traceEvents",
        Json.Arr (events ?cycle_us ?process_name ?thread_names snap) );
      ("displayTimeUnit", Json.String "ms");
    ]

let to_string ?cycle_us ?process_name ?thread_names snap =
  Json.to_string (to_json ?cycle_us ?process_name ?thread_names snap)
