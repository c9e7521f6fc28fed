type token =
  | IDENT of string
  | KW of string
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
  | ARROW
  | EOF

let pp_token ppf = function
  | IDENT s -> Format.fprintf ppf "identifier %S" s
  | KW s -> Format.fprintf ppf "keyword %s" s
  | LPAREN -> Format.pp_print_string ppf "'('"
  | RPAREN -> Format.pp_print_string ppf "')'"
  | LBRACKET -> Format.pp_print_string ppf "'['"
  | RBRACKET -> Format.pp_print_string ppf "']'"
  | LBRACE -> Format.pp_print_string ppf "'{'"
  | RBRACE -> Format.pp_print_string ppf "'}'"
  | COMMA -> Format.pp_print_string ppf "','"
  | SEMI -> Format.pp_print_string ppf "';'"
  | COLON -> Format.pp_print_string ppf "':'"
  | EQUALS -> Format.pp_print_string ppf "'='"
  | AMP -> Format.pp_print_string ppf "'&'"
  | BAR -> Format.pp_print_string ppf "'|'"
  | TILDE -> Format.pp_print_string ppf "'~'"
  | ARROW -> Format.pp_print_string ppf "'=>'"
  | EOF -> Format.pp_print_string ppf "end of input"

type pos = { line : int; col : int }

let pp_pos ppf p = Format.fprintf ppf "%d:%d" p.line p.col

exception Lex_error of string * pos

let is_keyword = function
  | "INTERFACE" | "TYPE" | "INITIALLY" | "VAR" | "EXCEPTION" | "ATOMIC"
  | "PROCEDURE" | "ACTION" | "COMPOSITION" | "OF" | "END" | "REQUIRES"
  | "MODIFIES" | "AT" | "MOST" | "WHEN" | "ENSURES" | "RETURNS" | "RAISES"
  | "SET" | "IN" | "SUBSET" | "UNCHANGED" | "SELF" | "NIL" | "TRUE" | "FALSE"
    ->
    true
  | _ -> false

let is_word_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_'

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 in
  let bol = ref 0 in
  (* offset of the current line's first character *)
  let i = ref 0 in
  let pos_at j = { line = !line; col = j - !bol + 1 } in
  let emit_at j t = toks := (t, pos_at j) :: !toks in
  let emit t = emit_at !i t in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin
      incr line;
      incr i;
      bol := !i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '-' && !i + 1 < n && src.[!i + 1] = '-' then begin
      (* line comment *)
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    end
    else if is_word_char c then begin
      let start = !i in
      while !i < n && is_word_char src.[!i] do
        incr i
      done;
      let word = String.sub src start (!i - start) in
      if is_keyword word then emit_at start (KW word)
      else emit_at start (IDENT word)
    end
    else begin
      if c = '=' && !i + 1 < n && src.[!i + 1] = '>' then begin
        emit ARROW;
        i := !i + 2
      end
      else begin
        (match c with
        | '(' -> emit LPAREN
        | ')' -> emit RPAREN
        | '[' -> emit LBRACKET
        | ']' -> emit RBRACKET
        | '{' -> emit LBRACE
        | '}' -> emit RBRACE
        | ',' -> emit COMMA
        | ';' -> emit SEMI
        | ':' -> emit COLON
        | '=' -> emit EQUALS
        | '&' -> emit AMP
        | '|' -> emit BAR
        | '~' -> emit TILDE
        | _ ->
          raise
            (Lex_error (Printf.sprintf "unexpected character %C" c, pos_at !i)));
        incr i
      end
    end
  done;
  emit EOF;
  List.rev !toks
