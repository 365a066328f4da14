(** Minimal self-contained JSON reader/writer.

    Backs the {!Trace} JSON-lines exporter, the sweep summaries and the
    benchmark's run records; exists because the build environment offers
    no JSON library.  Numbers are OCaml floats (exact for every integer up
    to 2{^53}, which covers all emitted counters). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering (the JSON-lines form). *)

val number_to_string : float -> string
(** Render one number the way {!to_string} does: integers without a
    decimal point, other values with enough digits to round-trip. *)

val to_string_pretty : t -> string
(** Indented rendering for committed artifacts; ends with a newline. *)

val parse : string -> (t, string) result

val of_file : string -> (t, string) result
(** Parse a whole file; [Error] when it cannot be opened or parsed. *)

val member : string -> t -> t option
(** Object member lookup; [None] on non-objects and absent keys. *)

val to_num : t -> float option

val to_str : t -> string option

val to_bool : t -> bool option

val to_list : t -> t list option
