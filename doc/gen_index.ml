(* Generates doc/index.mld.  The experiment index is produced from
   Experiments.Registry so the documentation can never drift from the
   list mrdetect and bench/main.exe actually run. *)

let preamble =
  {|{0 Detecting Malicious Routers}

An OCaml reproduction of Mızrak, Marzullo and Savage's line of work on
detecting compromised routers by validating their packet-forwarding
behaviour (PODC 2004 brief announcement; UCSD dissertation, 2007).

{1 Reading guide}

The protocols answer three questions; each maps to a module family:

{ul
{- {e What traffic state do routers keep?}  {!Core.Summary} implements
   the four conservation policies (flow / content / order / timeliness)
   and {!Core.Validation} the TV predicate over them.}
{- {e Who validates whom?}  {!Core.Pi2} (every router of every monitored
   path-segment, consensus-backed — see {!Core.Consensus} for the signed
   Dolev–Strong broadcast it stands on, and {!Core.Pi2_live} for the
   packet-level deployment), {!Core.Pik2} (segment ends only — deployed
   as {!Core.Fatih}), {!Core.Chi_fleet} (every output interface).}
{- {e Is a missing packet malice or congestion?}  {!Core.Chi} replays
   the suspect queue from the neighbours' traffic information;
   {!Core.Chi_red} does the same for RED's probabilistic dropping.}}

Every live protocol also has an entry in the closed
{!Core.Detectors} table (chi, fatih, perlman, pi2, pik2, watchers: a
name, a one-line doc and a deploy function returning the report
printer), which is how [mrdetect simulate --protocol NAME] resolves
detectors — the scenario driver has no per-protocol code.

The baselines the dissertation reviews are all executable:
{!Core.Watchers} / {!Core.Watchers_live} (conservation of flow, with the
consorting flaw and its fix), {!Core.Herzberg}, {!Core.Perlman} /
{!Core.Perlman_live}, {!Core.Sectrace} (with the AWERBUCH binary-search
variant and the framing attack), {!Core.Sats}, {!Core.Stealth}, and
{!Core.Threshold}.

{1 Substrates}

{ul
{- [Netsim] — discrete-event packet simulator: {!Netsim.Net},
   {!Netsim.Tcp}, {!Netsim.Red}, {!Netsim.Router} (with adversarial
   forwarding hooks), {!Netsim.Stats}, driven by one single-queue
   {!Netsim.Sim} event loop with one random stream, so a run is
   byte-identical for a given seed.}
{- [Topology] — {!Topology.Routing} (deterministic link state),
   {!Topology.Ecmp}, {!Topology.Policy} (segment excision),
   {!Topology.Segments} (Pr enumeration), {!Topology.Abilene},
   {!Topology.Generate}.}
{- [Setrecon] — Appendix A set reconciliation ({!Setrecon.Reconcile})
   over {!Setrecon.Gfp}/{!Setrecon.Poly}, plus {!Setrecon.Bloom}.}
{- [Crypto_sim] — {!Crypto_sim.Siphash} fingerprints,
   {!Crypto_sim.Keyring} (simulated signing keys),
   {!Crypto_sim.Sampling} (secret hash ranges).}
{- [Mrstats] — {!Mrstats.Erf}, {!Mrstats.Ztest}, {!Mrstats.Welford},
   {!Mrstats.Histogram}, {!Mrstats.Variate}.}
{- [Telemetry] — {!Telemetry.Journal} (bounded typed event
   ring), {!Telemetry.Export} (JSON and Prometheus text),
   {!Telemetry.Profile} (wall-clock phase timing), {!Telemetry.Span}
   (causal packet traces, detector round spans, verdict provenance and
   the flight recorder) with {!Telemetry.Trace_export} (Chrome
   trace-event JSON for Perfetto, plus the evidence-chain renderer
   behind [mrdetect trace explain]).  The always-on time-series layer
   sits beside these: {!Telemetry.Timeseries} (fixed-capacity
   downsampling rings) and {!Telemetry.Hist} (mergeable HDR-style
   log-bucketed histograms) feed {!Netsim.Stats}, which the probe feeds
   from the same hooks that journal each event, and surface as
   [mrdetect report]
   (self-contained HTML dashboard or [mrdetect-report-v1] JSON),
   [mrdetect top] (live terminal view) and
   {!Experiments.Benchgate}-backed [bench --check] regression gating.
   {!Netsim.Probe} wires these into the simulator's event stream and
   the detectors' verdicts;
   [mrdetect simulate --metrics FILE --journal FILE --trace-out FILE]
   exposes them on the command line (JSON summary with
   packet-conservation counters and detection latency; JSONL event
   journal; Chrome trace).  With none of the flags, no probe is
   attached and the forwarding plane is unchanged.  The README's
   "Observability" section — and its "Time series and reports"
   subsection — is the walkthrough.}
{- [Faults] — deterministic fault injection and the robustness oracle:
   {!Faults.Schedule} (declarative seed-deterministic fault plans with
   a textual s-expression form), {!Faults.Injector} (applies a plan to
   a live run through the probe hooks), {!Faults.Chaos} (seeded random
   schedules under a budget) and {!Faults.Oracle} (scores a run's
   verdict stream against ground truth: precision, recall,
   false-accusation rate, detection latency with mergeable
   p50/p95/p99 quantiles over every true alarm, and the alpha-accuracy
   counters: [alpha_violations], [framed_honest] and the framing /
   forgery / equivocation tallies — the [mrdetect-robustness-v1] JSON
   document).  {!Core.Byz} models the protocol-faulty adversaries the
   [byz-*] schedule forms arm (framing, equivocation, muting,
   stalling) and the origin-MAC screening that makes forged summary
   entries rejectable by construction; {!Core.Ctrl} is the lossy
   control-plane channel the summary exchanges ride — its retry budget
   is what lets a round degrade instead of accuse, and its peer faults
   are how mutes and stallers bite.
   [mrdetect simulate --faults FILE], [mrdetect chaos --seed S]
   (add [--byzantine] to sweep the byzantine budget) and
   [mrdetect byzantine] expose the machinery on the command line.
   The README's "Robustness" section — and its "threat matrix"
   subsection — is the walkthrough.}}

{1 Experiment index}

Every experiment is an [Experiments.Exp.entry] in
[Experiments.Registry.all] — a typed [eval : unit -> Exp.result] whose
structured tables back the rendered output, the merged [--json]
document and the golden tests alike.  This list is generated from that
registry:
|}

let postamble =
  {|
{1 Reproduction}

Run [mrdetect all] to regenerate every table and figure;
[mrdetect all --jobs N] evaluates the suite on a pool of N domains
with byte-identical output, and [--json FILE] merges the structured
results into one JSON document.  Performance numbers live in two
places: [perfbench/] measures detector-deployed workloads end to end,
and [bench/main.exe] records the kernel ns/op and allocation-per-event
baselines (BENCH_hotpath.json, BENCH_alloc.json) that its [--check]
mode gates; the [@alloc] test alias pins the steady-state allocation
budget deterministically.  DESIGN.md in the repository root maps each
experiment to its module and EXPERIMENTS.md records paper-vs-measured
outcomes.
|}

let cost = function
  | Experiments.Exp.Quick -> "quick"
  | Experiments.Exp.Moderate -> "moderate"
  | Experiments.Exp.Heavy -> "heavy"

let () =
  print_string preamble;
  print_string "\n{ul\n";
  List.iter
    (fun (e : Experiments.Exp.entry) ->
      Printf.printf "{- [mrdetect %s] — %s ({e %s})}\n" e.id e.doc (cost e.cost))
    Experiments.Registry.all;
  print_string "}\n";
  print_string postamble
