(* Domain-parallel run-matrix executor: one shared cursor.

   Workers claim cells with a fetch-and-add on one ascending cursor and
   publish each result into a ring slot keyed by its cell index.  The
   calling domain is worker 0 and the only consumer: it drains the ring
   strictly in index order, so the output is scheduling-independent by
   construction. *)

let recommended_jobs () = Domain.recommended_domain_count ()
let resolve_jobs j = if j <= 0 then recommended_jobs () else j

(* Host-side observation points.  The runner stays clock-free and
   dependency-free: callbacks fire at the named events and the sink (see
   Obs.Fleet) takes its own timestamps.  Callbacks run on the worker
   domain that hit the event, concurrently with other workers' callbacks
   — a sink must confine per-worker mutable state to the worker index or
   use atomics. *)
module Telemetry = struct
  type sink = {
    cell_start : worker:int -> cell:int -> unit;
    cell_done : worker:int -> cell:int -> unit;
    idle_spin : worker:int -> unit;
    in_flight : count:int -> unit;
  }

  let null =
    {
      cell_start = (fun ~worker:_ ~cell:_ -> ());
      cell_done = (fun ~worker:_ ~cell:_ -> ());
      idle_spin = (fun ~worker:_ -> ());
      in_flight = (fun ~count:_ -> ());
    }
end

let run_cell f idx =
  match f idx with
  | v -> Ok v
  | exception exn -> Error (exn, Printexc.get_raw_backtrace ())

module Matrix = struct
  (* Producers run at most [window] cells ahead of the consumer, so the
     in-flight result set — the only thing that outlives a cell — stays
     bounded whatever the matrix size (flat RSS for million-run chaos
     sweeps).  Ring slot for cell [idx] is [idx mod window]; the throttle
     guarantees the slot's previous occupant ([idx - window]) has been
     consumed before [idx] is produced into it. *)
  let window = 256

  let iter_ordered ?telemetry ?(jobs = 1) ~n ~f ~consume () =
    let ev g = match telemetry with Some s -> g s | None -> () in
    if n > 0 then begin
      let jobs = max 1 (min jobs n) in
      if jobs = 1 then
        for i = 0 to n - 1 do
          ev (fun s -> s.Telemetry.cell_start ~worker:0 ~cell:i);
          let v = f i in
          ev (fun s -> s.Telemetry.cell_done ~worker:0 ~cell:i);
          ev (fun s -> s.Telemetry.in_flight ~count:1);
          consume i v
        done
      else begin
        let ring = Array.init window (fun _ -> Atomic.make None) in
        let cursor = Atomic.make 0 in
        let consumed = Atomic.make 0 in
        let stop = Atomic.make false in
        let failure = ref None in
        (* Worker 0 only: consume every ready result in index order,
           dropping each slot so a drained prefix holds no live results.
           Failures are met in index order too, so the first one seen is
           the lowest-indexed failing cell. *)
        let rec drain () =
          let next = Atomic.get consumed in
          if next < n && Option.is_none !failure then
            let slot = ring.(next mod window) in
            match Atomic.get slot with
            | Some (idx, r) when idx = next ->
              Atomic.set slot None;
              Atomic.set consumed (next + 1);
              (match r with
              | Ok v -> consume next v
              | Error e ->
                failure := Some e;
                Atomic.set stop true);
              drain ()
            | _ -> ()
        in
        let rec work me =
          let idx = Atomic.fetch_and_add cursor 1 in
          if idx < n && not (Atomic.get stop) then begin
            while
              idx - Atomic.get consumed >= window && not (Atomic.get stop)
            do
              ev (fun s -> s.Telemetry.idle_spin ~worker:me);
              if me = 0 then drain ();
              Domain.cpu_relax ()
            done;
            if not (Atomic.get stop) then begin
              ev (fun s -> s.Telemetry.cell_start ~worker:me ~cell:idx);
              let r = run_cell f idx in
              ev (fun s -> s.Telemetry.cell_done ~worker:me ~cell:idx);
              Atomic.set ring.(idx mod window) (Some (idx, r));
              ev (fun s ->
                  s.Telemetry.in_flight ~count:(idx + 1 - Atomic.get consumed));
              if me = 0 then drain ();
              work me
            end
          end
        in
        let domains =
          Array.init (jobs - 1) (fun i -> Domain.spawn (fun () -> work (i + 1)))
        in
        Fun.protect
          ~finally:(fun () ->
            Atomic.set stop true;
            Array.iter Domain.join domains)
          (fun () ->
            work 0;
            while Atomic.get consumed < n && Option.is_none !failure do
              drain ();
              Domain.cpu_relax ()
            done);
        Option.iter
          (fun (exn, bt) -> Printexc.raise_with_backtrace exn bt)
          !failure
      end
    end

  let map ?telemetry ?(jobs = 1) ~n f =
    if jobs <= 1 && Option.is_none telemetry then Array.init n f
    else begin
      let out = ref [||] in
      iter_ordered ?telemetry ~jobs ~n ~f
        ~consume:(fun i v ->
          if i = 0 then out := Array.make n v else !out.(i) <- v)
        ();
      !out
    end
end
