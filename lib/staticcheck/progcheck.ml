(* Whole-program static analysis of scenario ASTs — no execution.

   Walks each straight-line client program with the spec-derived effect
   summaries of {!Effects}, maintaining a must-hold lockset per thread:

   - calling a procedure whose REQUIRES demands the object held while it
     is not in the lockset is [requires-unheld] (Release or Wait outside
     the critical section);
   - a blocking acquire of an object already in the lockset is
     [double-acquire] (guaranteed self-deadlock: WHEN m = NIL can never
     fire while SELF holds m);
   - fresh acquires add lock-order edges from every held object; a cycle
     in the union graph over all programs is [lock-order-cycle];
   - a potentially-blocking call inside a program marked as an interrupt
     handler is [interrupt-blocking].

   The analysis is deterministic and purely syntactic over the scenario
   AST plus the clause-derived summaries. *)

open Spec_core
module P = Proc
module Program = Threads_model.Program

type row = {
  row_program : int;
  row_step : int;
  row_call : string;  (* rendered call, e.g. "Acquire(m)" *)
  row_lockset : string list;  (* must-hold set after the step, sorted *)
}

type report = {
  p_scenario : string;
  p_rows : row list;
  p_edges : (string * string) list;  (* lock-order edges, deduplicated *)
  p_findings : Finding.t list;
}

let render_call (step : Program.step) =
  Printf.sprintf "%s(%s)" step.Program.proc
    (String.concat ", "
       (List.map
          (function
            | Program.Aobj n -> n
            | Program.Athread i -> Printf.sprintf "t%d" i)
          step.Program.args))

(* Find a cycle in the edge list; returns the node sequence if any. *)
let find_cycle edges =
  let nodes =
    List.sort_uniq compare (List.concat_map (fun (a, b) -> [ a; b ]) edges)
  in
  let succs n = List.filter_map (fun (a, b) -> if a = n then Some b else None) edges in
  let rec dfs path n =
    if List.mem n path then
      (* cycle: the suffix of [path] back to [n], in traversal order *)
      let rec suffix = function
        | [] -> []
        | x :: rest -> if x = n then [ x ] else x :: suffix rest
      in
      Some (List.rev (suffix path))
    else
      List.fold_left
        (fun acc s -> match acc with Some _ -> acc | None -> dfs (n :: path) s)
        None (succs n)
  in
  List.fold_left
    (fun acc n -> match acc with Some _ -> acc | None -> dfs [] n)
    None nodes

let check iface (scenario : Program.t) =
  let effects_cache = Hashtbl.create 16 in
  let effects_of proc =
    match Hashtbl.find_opt effects_cache proc.P.p_name with
    | Some e -> e
    | None ->
      let e = Effects.mutex_effects iface proc in
      Hashtbl.replace effects_cache proc.P.p_name e;
      e
  in
  let findings = ref [] in
  let add ?severity ~cls msg =
    findings :=
      Finding.make ?severity ~cls ~where:scenario.Program.name msg
      :: !findings
  in
  let edges = ref [] in
  let rows = ref [] in
  Array.iteri
    (fun pi steps ->
      let interrupt = List.mem pi scenario.Program.interrupts in
      let lockset = ref [] in
      List.iteri
        (fun si (step : Program.step) ->
          match Proc.find_proc iface step.Program.proc with
          | exception Not_found ->
            add ~cls:"unknown-procedure"
              (Printf.sprintf "program %d step %d calls undeclared %s" pi si
                 step.Program.proc)
          | proc ->
            if interrupt && Lint.may_delay iface proc then
              add ~cls:"interrupt-blocking"
                (Printf.sprintf
                   "program %d is an interrupt handler but step %d (%s) can \
                    block"
                   pi si (render_call step));
            List.iter
              (fun (e : Effects.effect) ->
                (* positional: formal i <- argument i *)
                let idx =
                  let rec find i = function
                    | [] -> None
                    | (f : P.formal) :: rest ->
                      if f.P.f_name = e.Effects.e_formal then Some i
                      else find (i + 1) rest
                  in
                  find 0 proc.P.p_formals
                in
                match idx with
                | None -> ()
                | Some i -> (
                  match List.nth_opt step.Program.args i with
                  | Some (Program.Aobj name) ->
                    let held = List.mem name !lockset in
                    if e.Effects.e_requires_held && not held then
                      add ~cls:"requires-unheld"
                        (Printf.sprintf
                           "program %d step %d: %s requires %s held but the \
                            must-hold lockset is {%s}"
                           pi si (render_call step) name
                           (String.concat ", " !lockset));
                    if
                      (not e.Effects.e_requires_held)
                      && e.Effects.e_delays
                      && e.Effects.e_post = Effects.Held
                      && held
                    then
                      add ~cls:"double-acquire"
                        (Printf.sprintf
                           "program %d step %d: %s blocks forever — %s is \
                            already held by this thread"
                           pi si (render_call step) name);
                    (match e.Effects.e_post with
                    | Effects.Held ->
                      if not held then begin
                        List.iter
                          (fun h ->
                            if not (List.mem (h, name) !edges) then
                              edges := (h, name) :: !edges)
                          !lockset;
                        lockset := !lockset @ [ name ]
                      end
                    | Effects.Freed ->
                      lockset := List.filter (fun h -> h <> name) !lockset
                    | Effects.Kept | Effects.Unknown -> ())
                  | Some (Program.Athread _) | None -> ()))
              (effects_of proc);
            rows :=
              {
                row_program = pi;
                row_step = si;
                row_call = render_call step;
                row_lockset = List.sort compare !lockset;
              }
              :: !rows)
        steps)
    scenario.Program.programs;
  let edges = List.rev !edges in
  (match find_cycle edges with
  | None -> ()
  | Some cycle ->
    add ~cls:"lock-order-cycle"
      (Printf.sprintf "lock-order graph has a cycle: %s"
         (String.concat " -> " (cycle @ [ List.hd cycle ]))));
  {
    p_scenario = scenario.Program.name;
    p_rows = List.rev !rows;
    p_edges = edges;
    p_findings = Finding.dedup (List.rev !findings);
  }

(* ---- built-in defect demonstrations ---- *)

let demo_scenarios =
  let call = Program.call in
  let obj n = Program.Aobj n in
  [
    Program.make ~name:"lock-inversion-static"
      ~objects:[ ("a", Sort.Thread); ("b", Sort.Thread) ]
      ~programs:
        [
          [ call "Acquire" [ obj "a" ]; call "Acquire" [ obj "b" ];
            call "Release" [ obj "b" ]; call "Release" [ obj "a" ] ];
          [ call "Acquire" [ obj "b" ]; call "Acquire" [ obj "a" ];
            call "Release" [ obj "a" ]; call "Release" [ obj "b" ] ];
        ]
      ();
    Program.make ~name:"double-acquire-static"
      ~objects:[ ("a", Sort.Thread) ]
      ~programs:
        [
          [ call "Acquire" [ obj "a" ]; call "Acquire" [ obj "a" ];
            call "Release" [ obj "a" ] ];
        ]
      ();
    Program.make ~name:"unheld-release-static"
      ~objects:[ ("a", Sort.Thread) ]
      ~programs:[ [ call "Release" [ obj "a" ] ] ]
      ();
    Program.make ~name:"interrupt-blocking-static"
      ~objects:[ ("a", Sort.Thread) ]
      ~programs:
        [
          [ call "Acquire" [ obj "a" ]; call "Release" [ obj "a" ] ];
          [ call "Acquire" [ obj "a" ]; call "Release" [ obj "a" ] ];
        ]
      ~interrupts:[ 1 ] ();
  ]
