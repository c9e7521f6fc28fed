(** Recursive-descent parser for the concrete specification syntax.

    Grammar (informally; [*] = repetition, [?] = option):

    {v
    interface  ::= INTERFACE ident decl...
    decl       ::= TYPE ident = sort INITIALLY literal
                 | VAR ident : sort INITIALLY literal
                 | EXCEPTION ident
                 | ATOMIC? PROCEDURE ident (formals?) header-tail
    formals    ::= formal [; formal]...        formal ::= VAR? ident : ident
    header-tail::= [RETURNS (ident : ident)] [RAISES ident [, ident]...]
                   [= COMPOSITION OF ident [; ident]... END]
                   [REQUIRES formula] [MODIFIES AT MOST [names]]
                   (cases | [ATOMIC ACTION ident cases]...)
    cases      ::= case case...
    case       ::= [RETURNS | RAISES ident] [WHEN formula] ENSURES formula
    formula    ::= expr           -- coerced; '=>' right-assoc, '|' and '&'
                                  -- left-assoc, then '=' / IN / SUBSET,
                                  -- then '~', then primaries
    primary    ::= TRUE | FALSE | SELF | NIL | {} | UNCHANGED [names]
                 | insert(expr, expr) | delete(expr, expr)
                 | available | unavailable | ident | ident_post | (expr)
    v}

    An identifier ending in [_post] denotes the post-state value; the
    procedure's return formal denotes [RESULT]. *)

exception Parse_error of string * Lexer.pos  (** message, position *)

(** Source positions of the declarations of a parsed interface, so
    diagnostics can cite [FILE:LINE:COL].  Kept outside {!Proc.interface}
    so parsed and programmatically-built interfaces stay structurally
    equal ([Proc.equal_interface]). *)
type locs

(** An empty table (e.g. for programmatically-built interfaces). *)
val no_locs : locs

(** Position of [PROCEDURE name]'s declaration. *)
val loc_proc : locs -> string -> Lexer.pos option

(** Position of [ATOMIC ACTION action] inside [proc] (for an atomic
    procedure the action shares the procedure's name and position). *)
val loc_action : locs -> proc:string -> string -> Lexer.pos option

(** Position of the 1-based [case]-th case of [action] inside [proc]. *)
val loc_case : locs -> proc:string -> action:string -> int -> Lexer.pos option

(** [interface_of_string src] parses a complete interface.  Raises
    {!Parse_error} or [Lexer.Lex_error]. *)
val interface_of_string : string -> Proc.interface

(** Like {!interface_of_string} but also returns the declaration
    positions. *)
val interface_of_string_located : string -> Proc.interface * locs

(** [formula_of_string src] parses a single formula. *)
val formula_of_string : string -> Formula.t

(** [term_of_string src] parses a single term. *)
val term_of_string : string -> Term.t
