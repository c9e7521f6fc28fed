(* Splitmix64, truncated to OCaml's 63-bit native ints.  The constants are
   the standard ones from Steele, Lea & Flood, "Fast Splittable Pseudorandom
   Number Generators" (OOPSLA 2014). *)

(* The 64-bit state lives unboxed in 8 bytes, so a draw allocates
   nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] next64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix s

let next t =
  (* Mask to 62 bits so the result is non-negative on 64-bit OCaml. *)
  Int64.to_int (Int64.logand (next64 t) 0x3FFFFFFFFFFFFFFFL)

(* Rejection sampling to avoid modulo bias for large bounds. *)
let rec draw t bound limit =
  let r = next t in
  if r < limit then r mod bound else draw t bound limit

let int t bound =
  assert (bound > 0);
  draw t bound (0x3FFFFFFFFFFFFFFF / bound * bound)

let float t = float_of_int (next t) *. (1.0 /. 4611686018427387904.0)

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let split t = of_state (mix (next64 t))

(* Matrix cells must not share a generator (domain-safety) nor overlap
   streams (statistical independence): hash (base, index) through the
   output mixer so adjacent cells land in unrelated regions of the
   splitmix sequence, instead of seeding with [base + index] directly —
   raw consecutive seeds produce correlated first draws. *)
let cell ~base ~index =
  assert (index >= 0);
  of_state
    (mix
       (Int64.add (Int64.of_int base)
          (Int64.mul (Int64.of_int (index + 1)) golden_gamma)))
