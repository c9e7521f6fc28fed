(** Pretty-printer for interface specifications, producing the concrete
    syntax accepted by {!Parser}.  [Parser.interface_of_string (to_string
    iface)] yields an interface equal to [iface] (checked by a property
    test). *)

val pp_proc : Proc.interface -> Format.formatter -> Proc.t -> unit
val to_string : Proc.interface -> string
