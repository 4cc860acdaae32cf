(** The bench regression gate behind [bench --check].

    Band arithmetic and baseline-file spelunking for comparing fresh
    benchmark measurements against recorded artifacts (BENCH_alloc.json,
    BENCH_hotpath.json, and perfbench's sets).
    Bands are one-sided: a throughput metric only fails low, a latency
    or allocation metric only fails high — on a shared vCPU the noise
    direction is known per metric kind, so a symmetric band would either
    miss regressions or flag neighbors' load.  Each band carries a
    multiplicative [limit] plus an absolute [slack] so near-zero
    baselines don't amplify measurement dust into failures. *)

type direction = Higher_better | Lower_better

type band = private {
  metric : string;
  direction : direction;
  limit : float;
  slack : float;
}

type verdict = {
  metric : string;
  direction : direction;
  baseline : float;
  measured : float;
  limit : float;
  threshold : float;  (** the boundary value implied by the band *)
  ok : bool;
}

val band : ?slack:float -> direction:direction -> limit:float -> string -> band
(** A tolerance band: [Lower_better] passes while
    [measured <= baseline * limit + slack]; [Higher_better] while
    [measured >= baseline / limit - slack].  Raises [Invalid_argument]
    on a limit not exceeding 1 or a negative slack. *)

val judge : band -> baseline:float -> measured:float -> verdict

val all_ok : verdict list -> bool

val render : verdict -> string
(** One aligned report line, ending in [ok] or [REGRESSION]. *)

val load_json : string -> (Telemetry.Export.json, string) result
(** {!Telemetry.Export.read_file}: a baseline document or a message
    naming the file. *)

val float_at : Telemetry.Export.json -> string list -> float option
(** Walk an object path ([["recorded_seed"; "minor_words_per_event"]]). *)

val find_by :
  Telemetry.Export.json ->
  field:string ->
  key:string ->
  value:string ->
  Telemetry.Export.json option
(** In [doc.field] (a list), the row whose [key] member is the string
    [value] — how the BENCH artifacts key per-mode/per-kernel rows. *)
