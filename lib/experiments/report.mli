(** `mrdetect report`: the machine-independent run report.

    Consumes an [mrdetect-metrics-v1] document (written by
    [simulate --metrics]) and produces the [mrdetect-report-v1] form:
    scenario, packet conservation, detection outcome and the always-on
    {!Netsim.Stats} collectors, with the machine-dependent fields —
    [engine], [phases] — normalized away.  The result is byte-identical
    run-to-run for the same scenario, the contract the
    report-determinism golden test pins.

    {!html} renders the report as a single self-contained HTML page:
    inline SVG sparklines for the time series, inline SVG bars for the
    histograms, no external scripts, styles or fonts. *)

val schema : string
(** ["mrdetect-report-v1"]. *)

val of_metrics : Telemetry.Export.json -> (Telemetry.Export.json, string) result
(** Normalize a metrics document into a report document.  Errors on a
    wrong schema or a missing/null [stats] section. *)

val load : string -> (Telemetry.Export.json, string) result
(** Read and normalize a metrics JSON file. *)

val html : Telemetry.Export.json -> (string, string) result
(** Render a report document as a self-contained HTML dashboard. *)

val html_of_metrics : Telemetry.Export.json -> (string, string) result
(** {!of_metrics} followed by {!html}. *)
