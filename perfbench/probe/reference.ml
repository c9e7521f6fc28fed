(* The reference kernel of the workloads that run `repro`: a fixed
   computation that shares no code with the repository — hashing, short
   lists and minor-heap allocation, the mix the simulator is made of.
   The benchmark reports a batch's CPU time in units of this kernel's
   speed measured on the same core at the same time, so that the shared
   host's speed, which varies by 10-20 % from second to second, cancels
   out.  One ref unit is the CPU time the kernel takes for a million
   iterations. *)

let chunk = 1000

(* [run tbl i0] — iterations [i0 .. i0 + chunk - 1]. *)
let run tbl i0 =
  let acc = ref 0 in
  for i = i0 to i0 + chunk - 1 do
    let l = List.init 6 (fun j -> (i * j) land 65535) in
    let k = (i * 7919) land 4095 in
    let prev = Option.value (Hashtbl.find_opt tbl k) ~default:[] in
    Hashtbl.replace tbl k (List.filteri (fun j _ -> j < 6) (List.rev_append l prev));
    acc := !acc + List.fold_left ( + ) 0 prev
  done;
  ignore (Sys.opaque_identity !acc)

(* Print "ready", run until SIGTERM, then print the iterations done and
   this process's CPU seconds.  perfbench/run.py pins it to the core the
   measured process runs on, so both share that core's speed slice by
   slice. *)
let until_stopped () =
  let stop = Atomic.make false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Atomic.set stop true));
  print_endline "ready";
  let tbl = Hashtbl.create 4096 in
  let n = ref 0 in
  while not (Atomic.get stop) do
    run tbl (!n * chunk);
    incr n
  done;
  let t = Unix.times () in
  Printf.printf "%d %.9f\n" (!n * chunk) (t.Unix.tms_utime +. t.Unix.tms_stime)
