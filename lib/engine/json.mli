(** A small JSON value type and its compact writer: the one encoder every
    machine-readable output of the simulator goes through (experiment
    results, the serve and cluster summaries, Chrome trace strings). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val add_string : Buffer.t -> string -> unit
(** Append [s] as a quoted JSON string.  ['"'], ['\\'], newline, tab and
    carriage return get their two-character escapes; other control bytes
    are written as [\u00XX].  Bytes at or above 0x20 pass through. *)

val add : Buffer.t -> t -> unit
(** Append the compact encoding: no whitespace, members in list order,
    floats as [%.6g], and NaN or an infinity as [null] (JSON has no
    number for them). *)

val to_string : t -> string
