(** Chrome trace-event JSON export for {!Span} collectors.

    Produces the Trace Event Format that Perfetto
    ({{:https://ui.perfetto.dev}ui.perfetto.dev}) and chrome://tracing
    load: an object with a [traceEvents] array of metadata ("M"),
    complete ("X") and instant ("i") events, timestamps in microseconds,
    one row per (pid, tid) track.  Every event carries its collector
    entry id in [args.id]; verdict events additionally carry the
    provenance fields ([detector], [suspects], [alarm], [evidence] — the
    entry ids of the justifying spans/instants), which is what
    [mrdetect trace explain] walks; {!verdicts} parses them back into
    the {!Span.verdict} records they were written from.

    Everything here is dependency-free JSON via {!Export}, and the
    emitted files parse back with {!Export.of_string} (the golden
    @trace test round-trips one). *)

val document : Span.t -> Export.json
(** The full trace document: [displayTimeUnit], an [otherData] block
    (schema [mrdetect-trace-v1], sampling statistics, drop counts) and
    [traceEvents] sorted by timestamp with track-naming metadata
    first. *)

val write : string -> Span.t -> unit
(** Serialize {!document} to a file, newline-terminated. *)

val validate : Export.json -> (unit, string) result
(** Schema check for a parsed trace file: [traceEvents] exists; every
    event has [ph] (one of M/X/i), [ts], [pid] and [tid]; "X" events
    have a non-negative [dur]; timestamps are monotonically
    non-decreasing across the array; and every verdict's [evidence] ids
    refer to events present in the file. *)

type verdict = Span.verdict

val verdicts : Export.json -> verdict list
(** The provenance records of a parsed trace file, in file order: each
    parses back to the record {!Span.verdict} exported. *)

val explain : Export.json -> (string, string) result
(** Pretty-print every verdict's evidence chain ("why was r blamed?"):
    for each provenance record, the verdict line followed by the
    resolved evidence events (round spans, suspicious losses, summary
    mismatches) with their timestamps, tracks and arguments.  Runs
    {!validate} first and reports its error if the file is
    malformed. *)
