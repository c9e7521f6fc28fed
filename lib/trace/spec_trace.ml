module Tid = Threads_util.Tid

type arg = Obj of int | Thr of Tid.t

type outcome = Ret | Raise of string

type event = {
  proc : string;
  action : string;
  self : Tid.t;
  args : (string * arg) list;
  outcome : outcome;
  result_bool : bool option;
  removed : Tid.t list;
}

let make ~proc ?action ~self ~args ?(outcome = Ret) ?result_bool
    ?(removed = []) () =
  {
    proc;
    action = Option.value action ~default:proc;
    self;
    args;
    outcome;
    result_bool;
    removed;
  }

let pp_arg ppf = function
  | Obj id -> Format.fprintf ppf "#%d" id
  | Thr t -> Tid.pp ppf t

let pp_event ppf e =
  Format.fprintf ppf "%a: %s.%s(%a)" Tid.pp e.self e.proc e.action
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf (name, a) -> Format.fprintf ppf "%s=%a" name pp_arg a))
    e.args;
  (match e.outcome with
  | Ret -> ()
  | Raise exc -> Format.fprintf ppf " raises %s" exc);
  (match e.result_bool with
  | Some b -> Format.fprintf ppf " -> %b" b
  | None -> ());
  if e.removed <> [] then
    Format.fprintf ppf " removed=%a" Tid.Set.pp (Tid.Set.of_list e.removed)

let event_to_string e = Format.asprintf "%a" pp_event e

module Sink = struct
  (* A lock-free cons onto an atomic list: emitters on real parallel
     backends append while holding their own linearizing lock, so the CAS
     loop here only ever retries under cross-object contention. *)
  type t = event list Atomic.t

  let create () = Atomic.make []

  let rec emit t ev =
    let old = Atomic.get t in
    if not (Atomic.compare_and_set t old (ev :: old)) then emit t ev

  let events t = List.rev (Atomic.get t)
end
