(* repro list | run ID... | all — the paper's claims as experiments E1–E10;
   repro spec [--variant v] — a spec variant in the concrete syntax. *)

open Cmdliner
module Registry = Threads_harness.Registry

let list =
  let run () =
    List.iter
      (fun (e : Threads_harness.Exp.t) ->
        Printf.printf "%-4s %s\n     %s\n" e.id e.title e.claim)
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the experiments and the claims they reproduce")
    Term.(const run $ const ())

let run =
  let ids = Arg.(non_empty & pos_all string [] & info [] ~docv:"ID") in
  let run ids =
    match Registry.run_ids ids with
    | [] -> ()
    | unknown ->
      Printf.eprintf "unknown experiment id(s): %s\n"
        (String.concat ", " unknown);
      exit 1
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one or more experiments (e.g. run E1 E7)")
    Term.(const run $ ids)

let all =
  Cmd.v (Cmd.info "all" ~doc:"Run every experiment")
    Term.(const Registry.run_all $ const ())

let spec =
  let variant =
    Arg.(value & opt string "final" & info [ "variant" ] ~docv:"VARIANT")
  in
  let run variant =
    print_string (Spec_core.Printer.to_string (Cli.variant variant))
  in
  Cmd.v
    (Cmd.info "spec"
       ~doc:
         "Print a specification variant (final, missing-mutex-guard, \
          must-raise, nelson-bug) in the concrete syntax")
    Term.(const run $ variant)
