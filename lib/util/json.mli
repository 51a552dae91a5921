(** Minimal JSON reader for the repository's own machine-readable
    outputs (bench [--json], cache entries, [serve --json]), plus the
    one string escaper their hand-written emitters share.
    The bench regression gate uses it to load committed baselines; no
    external JSON dependency is vendored, so this is the one reader.

    Numbers are represented as floats; every number the repository's
    writers emit round-trips exactly through a double. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse a complete document; [Error] carries a message with the
    byte offset of the first problem. *)

val parse_file : string -> (t, string) result
(** [parse] over a file's contents; unreadable files are [Error]. *)

val escape : string -> string
(** The body of a JSON string literal (without the quotes): escapes the
    double quote, the backslash, newline, carriage return and tab by
    name, and every other control character as a [\u00XX] escape. Every hand-written JSON emitter in
    the repository goes through this one function. *)

val member : string -> t -> t option
(** Object field lookup; [None] on missing key or non-object. *)

val to_list : t -> t list option
val to_num : t -> float option
val to_str : t -> string option
val to_bool : t -> bool option

val num_member : string -> t -> float option
(** [member] composed with [to_num]. *)

val str_member : string -> t -> string option
