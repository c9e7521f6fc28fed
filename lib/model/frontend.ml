open Spec_core

type t = {
  iface : Proc.interface;
  program : Program.t;
  objects : (string * Spec_obj.t) list;
  init_state : State.t;
}

let make iface (program : Program.t) =
  let objects =
    (* Positional ids: node keys and any printed state depend only on the
       scenario, not on process history or the executing domain. *)
    List.mapi
      (fun i (name, sort) -> (name, Spec_obj.make ~oid:(i + 1) name sort))
      program.objects
  in
  let init_state =
    List.fold_left
      (fun st (name, obj) ->
        let v =
          match List.assoc_opt name program.initials with
          | Some v -> v
          | None -> Value.initial obj.Spec_obj.sort
        in
        State.add obj v st)
      State.empty objects
  in
  { iface; program; objects; init_state }

let init_phases fe =
  Array.make (Array.length fe.program.programs) (Program.Idle 0)

let view fe state phases = { Program.state; phases; objects = fe.objects }

let bindings_of fe (step : Program.step) proc =
  Semantics.bindings_of_args fe.iface proc
    (List.map
       (function
         | Program.Aobj name -> `Obj (List.assoc name fe.objects)
         | Program.Athread i -> `Val (Value.Thread (Program.tid_of i)))
       step.args)

let pending fe phases i =
  let program = fe.program.programs.(i) in
  match phases.(i) with
  | Program.Done -> None
  | Program.Idle s ->
    if s >= List.length program then None
    else
      let step = List.nth program s in
      let proc = Proc.find_proc fe.iface step.proc in
      Some (step, proc, List.hd (Proc.actions proc), 0, s)
  | Program.Mid (s, k) ->
    let step = List.nth program s in
    let proc = Proc.find_proc fe.iface step.proc in
    Some (step, proc, List.nth (Proc.actions proc) k, k, s)

let advance fe i (proc : Proc.t) k s =
  if k + 1 >= List.length (Proc.actions proc) then
    if s + 1 >= List.length fe.program.programs.(i) then Program.Done
    else Program.Idle (s + 1)
  else Program.Mid (s, k + 1)

let key_buffer state phases =
  let buf = Buffer.create 64 in
  List.iter
    (fun obj ->
      Buffer.add_string buf
        (Printf.sprintf "%d=%s;" obj.Spec_obj.oid
           (Value.to_string (State.get state obj))))
    (State.objects state);
  Array.iter
    (fun p ->
      Buffer.add_string buf
        (match p with
        | Program.Idle s -> Printf.sprintf "I%d," s
        | Program.Mid (s, k) -> Printf.sprintf "M%d.%d," s k
        | Program.Done -> "D,"))
    phases;
  buf
