(** Lexer for the concrete specification syntax (an ASCII rendering of the
    paper's notation; see [specs/threads.lspec]).

    Comments run from ["--"] to end of line.  Upper-case words from the
    fixed keyword set are keywords; every other alphanumeric word is an
    identifier (so [insert], [delete], [available], [unavailable] are
    identifiers resolved by the parser). *)

type token =
  | IDENT of string
  | KW of string  (** one of the reserved upper-case keywords *)
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | LBRACE
  | RBRACE
  | COMMA
  | SEMI
  | COLON
  | EQUALS
  | AMP
  | BAR
  | TILDE
  | ARROW  (** ["=>"] *)
  | EOF

val pp_token : Format.formatter -> token -> unit

(** A source position: 1-based line and column of a token's first
    character, so diagnostics can cite [threads.lspec:LINE:COL]. *)
type pos = { line : int; col : int }

val pp_pos : Format.formatter -> pos -> unit

exception Lex_error of string * pos  (** message, position *)

(** [tokenize src] returns the token stream with source positions. *)
val tokenize : string -> (token * pos) list
