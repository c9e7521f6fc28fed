type t = int

let equal = Int.equal
let compare = Int.compare
let pp ppf t = Format.fprintf ppf "t%d" t
let to_string t = "t" ^ string_of_int t

module Set = struct
  include Set.Make (Int)

  let pp ppf s =
    Format.fprintf ppf "{%s}"
      (String.concat ", " (List.map (fun t -> "t" ^ string_of_int t) (elements s)))

  let to_string s = Format.asprintf "%a" pp s
  let of_int_list = of_list
end
