type t = { oid : int; name : string; sort : Sort.t }

(* Atomic: spec objects may be minted from parallel domains (the
   run-matrix executor).  Object identity only needs uniqueness, not
   density, so fetch-and-add is enough.  Code whose printed output
   embeds ids — conformance, the model checker — uses [make] with
   deterministic caller-chosen ids instead. *)
let counter = Atomic.make 0

let create name sort =
  { oid = 1 + Atomic.fetch_and_add counter 1; name; sort }

let make ~oid name sort =
  assert (oid <> 0);
  { oid; name; sort }

(* oid 0 is reserved for the global alerts set. *)
let alerts = { oid = 0; name = "alerts"; sort = Sort.Thread_set }

let equal a b = a.oid = b.oid
let compare a b = Int.compare a.oid b.oid
let pp ppf t = Format.fprintf ppf "%s#%d" t.name t.oid
