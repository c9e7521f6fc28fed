(* Two-list ("banker's") queue: [front] holds the head in order, [rear]
   holds the tail reversed.  Push and pop are O(1) amortized; the old
   head-first list made every push O(n). *)
type 'a t = { mutable front : 'a list; mutable rear : 'a list }

let create () = { front = []; rear = [] }
let is_empty q = q.front = [] && q.rear = []
let length q = List.length q.front + List.length q.rear
let push q t = q.rear <- t :: q.rear

let pop q =
  (match q.front with
  | [] -> q.front <- List.rev q.rear; q.rear <- []
  | _ :: _ -> ());
  match q.front with
  | [] -> None
  | x :: rest ->
    q.front <- rest;
    Some x

let elements q = q.front @ List.rev q.rear

let pop_all q =
  let all = elements q in
  q.front <- [];
  q.rear <- [];
  all

let mem q t = List.memq t q.front || List.memq t q.rear

let remove q t =
  let present = mem q t in
  if present then begin
    let drop = List.filter (fun x -> x != t) in
    q.front <- drop q.front;
    q.rear <- drop q.rear
  end;
  present
