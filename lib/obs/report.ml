module Table = Threads_util.Table
module Stats = Threads_util.Stats

(* Per-object fast-path rates, derived from the "<obj>.acquires" /
   "<obj>.fast_path_hits" counter pairs the package probes maintain
   (P counts as Acquire, per the paper). *)
let fast_path_rows counters =
  List.filter_map
    (fun (name, acquires) ->
      match Filename.check_suffix name ".acquires" with
      | false -> None
      | true ->
        let obj = Filename.chop_suffix name ".acquires" in
        let hits =
          Option.value
            (List.assoc_opt (obj ^ ".fast_path_hits") counters)
            ~default:0
        in
        Some (obj, acquires, hits))
    counters

let span_rows spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s : Instrument.span) ->
      let count, total =
        Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0)
      in
      Hashtbl.replace tbl s.name (count + 1, total + (s.t1 - s.t0)))
    spans;
  Hashtbl.fold (fun name (count, total) acc -> (name, count, total) :: acc)
    tbl []
  |> List.sort compare

let render (snap : Instrument.snapshot) =
  let buf = Buffer.create 1024 in
  let fp = fast_path_rows snap.counters in
  if fp <> [] then begin
    let t =
      Table.create ~title:"obs: fast-path rates"
        ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
        [ "object"; "acquires"; "fast-path hits"; "rate" ]
    in
    List.iter
      (fun (obj, acquires, hits) ->
        Table.add_row t
          [
            obj;
            Table.cell_int acquires;
            Table.cell_int hits;
            (if acquires = 0 then "-"
             else Table.cell_pct (float_of_int hits /. float_of_int acquires));
          ])
      fp;
    Buffer.add_string buf (Table.render t)
  end;
  if snap.counters <> [] then begin
    let t =
      Table.create ~title:"obs: counters"
        ~aligns:[ Table.Left; Table.Right ]
        [ "counter"; "value" ]
    in
    List.iter
      (fun (name, v) -> Table.add_row t [ name; Table.cell_int v ])
      snap.counters;
    Buffer.add_string buf (Table.render t)
  end;
  if snap.gauges <> [] then begin
    let t =
      Table.create ~title:"obs: high-water gauges"
        ~aligns:[ Table.Left; Table.Right ]
        [ "gauge"; "max" ]
    in
    List.iter
      (fun (name, v) -> Table.add_row t [ name; Table.cell_int v ])
      snap.gauges;
    Buffer.add_string buf (Table.render t)
  end;
  if snap.histograms <> [] then begin
    let t =
      Table.create ~title:"obs: histograms (cycles)"
        ~aligns:
          [
            Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
            Table.Right; Table.Right;
          ]
        [ "histogram"; "n"; "mean"; "p50"; "p90"; "p99"; "max" ]
    in
    List.iter
      (fun (name, (s : Stats.summary)) ->
        Table.add_row t
          [
            name;
            Table.cell_int s.n;
            Table.cell_float ~decimals:1 s.mean;
            Table.cell_float ~decimals:1 s.p50;
            Table.cell_float ~decimals:1 s.p90;
            Table.cell_float ~decimals:1 s.p99;
            Table.cell_float ~decimals:0 s.max;
          ])
      snap.histograms;
    Buffer.add_string buf (Table.render t)
  end;
  (match span_rows snap.spans with
  | [] -> ()
  | rows ->
    let t =
      Table.create ~title:"obs: spans"
        ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
        [ "span"; "count"; "total cycles"; "mean cycles" ]
    in
    List.iter
      (fun (name, count, total) ->
        Table.add_row t
          [
            name;
            Table.cell_int count;
            Table.cell_int total;
            Table.cell_float ~decimals:1
              (float_of_int total /. float_of_int count);
          ])
      rows;
    Buffer.add_string buf (Table.render t));
  Buffer.contents buf

(* Machine-readable form of the same report, for --format=json consumers:
   every section the tables render, as one schema-versioned object. *)
let to_json (snap : Instrument.snapshot) =
  let open Json in
  let summary_json (s : Stats.summary) =
    Obj
      [
        ("n", Int s.n);
        ("mean", Float s.mean);
        ("stddev", Float s.stddev);
        ("min", Float s.min);
        ("max", Float s.max);
        ("p50", Float s.p50);
        ("p90", Float s.p90);
        ("p99", Float s.p99);
      ]
  in
  Obj
    [
      ("schema_version", Int 1);
      ( "fast_path",
        Arr
          (List.map
             (fun (obj, acquires, hits) ->
               Obj
                 [
                   ("object", String obj);
                   ("acquires", Int acquires);
                   ("fast_path_hits", Int hits);
                 ])
             (fast_path_rows snap.counters)) );
      ( "counters",
        Obj (List.map (fun (name, v) -> (name, Int v)) snap.counters) );
      ("gauges", Obj (List.map (fun (name, v) -> (name, Int v)) snap.gauges));
      ( "histograms",
        Obj
          (List.map
             (fun (name, s) -> (name, summary_json s))
             snap.histograms) );
      ( "spans",
        Arr
          (List.map
             (fun (name, count, total) ->
               Obj
                 [
                   ("name", String name);
                   ("count", Int count);
                   ("total_cycles", Int total);
                 ])
             (span_rows snap.spans)) );
    ]
