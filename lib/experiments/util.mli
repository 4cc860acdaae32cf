(** Table/figure rendering helpers shared by the experiment drivers. *)

val banner : string -> unit
(** Print a figure/table header with a rule. *)

val row : string list -> unit
(** Print a row of left-padded columns (width 12). *)

val kv : string -> string -> unit
(** Print an aligned "key: value" line. *)
