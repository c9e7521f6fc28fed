module Tid = Threads_util.Tid

type sem = Available | Unavailable

type t =
  | Nil
  | Thread of Tid.t
  | Bool of bool
  | Int of int
  | Set of Tid.Set.t
  | Sem of sem

let equal a b =
  match (a, b) with
  | Nil, Nil -> true
  | Thread x, Thread y -> Tid.equal x y
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Set x, Set y -> Tid.Set.equal x y
  | Sem x, Sem y -> x = y
  | (Nil | Thread _ | Bool _ | Int _ | Set _ | Sem _), _ -> false

let compare a b =
  let tag = function
    | Nil -> 0
    | Thread _ -> 1
    | Bool _ -> 2
    | Int _ -> 3
    | Set _ -> 4
    | Sem _ -> 5
  in
  match (a, b) with
  | Nil, Nil -> 0
  | Thread x, Thread y -> Tid.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Set x, Set y -> Tid.Set.compare x y
  | Sem x, Sem y -> Stdlib.compare x y
  | _ -> Int.compare (tag a) (tag b)

let sort_of = function
  | Nil | Thread _ -> Sort.Thread
  | Bool _ -> Sort.Bool
  | Int _ -> Sort.Int
  | Set _ -> Sort.Thread_set
  | Sem _ -> Sort.Semaphore

let has_sort v s = Sort.equal (sort_of v) s

let initial = function
  | Sort.Thread -> Nil
  | Sort.Bool -> Bool false
  | Sort.Int -> Int 0
  | Sort.Thread_set -> Set Tid.Set.empty
  | Sort.Semaphore -> Sem Available

let to_string = function
  | Nil -> "NIL"
  | Thread t -> Tid.to_string t
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Set s -> Tid.Set.to_string s
  | Sem Available -> "available"
  | Sem Unavailable -> "unavailable"

let pp ppf v = Format.pp_print_string ppf (to_string v)

let sort_error op v =
  invalid_arg (Printf.sprintf "Value.%s: bad operand %s" op (to_string v))

let as_set = function Set s -> s | v -> sort_error "as_set" v

let as_bool = function Bool b -> b | v -> sort_error "as_bool" v

let as_tid op = function Thread t -> t | v -> sort_error op v

let insert set thread = Set (Tid.Set.add (as_tid "insert" thread) (as_set set))
let delete set thread = Set (Tid.Set.remove (as_tid "delete" thread) (as_set set))
let member thread set = Tid.Set.mem (as_tid "member" thread) (as_set set)
let subset s1 s2 = Tid.Set.subset (as_set s1) (as_set s2)
