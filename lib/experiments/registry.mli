(** The single source of truth for the experiment suite.

    [bin/mrdetect.ml] (subcommands, [all], [quick]) and
    [doc/gen_index.ml] (the odoc experiment index) consume this list
    instead of keeping their own copies. *)

val all : Exp.entry list
(** Every experiment, in the dissertation's presentation order. *)

val quick : Exp.entry list
(** The sub-second subset ([Exp.Quick]) behind the [@quick] dune
    alias. *)

val find : string -> Exp.entry option

val eval_all :
  ?jobs:int -> ?entries:Exp.entry list -> unit -> Exp.result list
(** Evaluate [entries] (default {!all}) on a {!Pool} of [jobs] domains
    (default 1 — the serial path).  Results come back in registry
    order whatever the parallelism, and are bit-identical across
    [jobs] values. *)

val json_document : Exp.result list -> Telemetry.Export.json
(** The merged [mrdetect-experiments-v1] document: deterministic in
    the result list alone, so a [--jobs 4] run writes byte-identical
    JSON to a [--jobs 1] run. *)
