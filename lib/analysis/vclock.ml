type t = { mutable v : int array }

let create () = { v = [||] }

let get c i = if i >= 0 && i < Array.length c.v then c.v.(i) else 0

(* Grow to exactly [n]: [join] grows to the other clock's length, so any
   over-allocation here would itself propagate through joins and compound. *)
let grow c n =
  if n > Array.length c.v then begin
    let bigger = Array.make n 0 in
    Array.blit c.v 0 bigger 0 (Array.length c.v);
    c.v <- bigger
  end

let set c i x =
  grow c (i + 1);
  c.v.(i) <- x

let incr c i = set c i (get c i + 1)

let join a b =
  grow a (Array.length b.v);
  Array.iteri (fun i x -> if x > a.v.(i) then a.v.(i) <- x) b.v


let leq_epoch ~tid ~clock c = clock <= get c tid
