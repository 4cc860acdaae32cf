(* The bench regression gate (`bench --check`).

   Pure band arithmetic plus the JSON spelunking needed to pull baseline
   numbers out of recorded artifacts (BENCH_alloc.json,
   BENCH_hotpath.json, perfbench's sets); the measuring itself stays in
   bench/main.ml and perfbench/.  Kept as a library so the band logic
   is unit-testable without running a single benchmark.

   Wall-clock numbers on a shared vCPU are noisy in one direction per
   metric kind (contention deflates throughput and inflates latency), so
   bands are asymmetric by design: a metric only fails in its
   regression direction, and each band carries both a multiplicative
   limit and an absolute slack so near-zero baselines (pooled
   words-per-event) don't turn measurement dust into failures. *)

type direction = Higher_better | Lower_better

type band = {
  metric : string;
  direction : direction;
  limit : float; (* > 1: allowed degradation factor *)
  slack : float; (* absolute headroom in the metric's own unit *)
}

type verdict = {
  metric : string;
  direction : direction;
  baseline : float;
  measured : float;
  limit : float;
  threshold : float; (* the value the measurement must not cross *)
  ok : bool;
}

let band ?(slack = 0.0) ~direction ~limit metric =
  if not (limit > 1.0) then invalid_arg "Benchgate.band: limit must exceed 1";
  if slack < 0.0 then invalid_arg "Benchgate.band: negative slack";
  { metric; direction; limit; slack }

let judge (b : band) ~baseline ~measured =
  let threshold, ok =
    match b.direction with
    | Lower_better ->
        let t = (baseline *. b.limit) +. b.slack in
        (t, measured <= t)
    | Higher_better ->
        let t = Float.max 0.0 ((baseline /. b.limit) -. b.slack) in
        (t, measured >= t)
  in
  { metric = b.metric; direction = b.direction; baseline; measured;
    limit = b.limit; threshold; ok }

let all_ok = List.for_all (fun v -> v.ok)

let render v =
  let arrow = match v.direction with Higher_better -> ">=" | Lower_better -> "<=" in
  Printf.sprintf "  %-44s %12.4g vs %12.4g baseline  (need %s %.4g)  %s" v.metric
    v.measured v.baseline arrow v.threshold
    (if v.ok then "ok" else "REGRESSION")

(* --- baseline extraction ---------------------------------------------- *)

module J = Telemetry.Export

let load_json = J.read_file

(* Walk an object path, e.g. ["recorded_seed"; "minor_words_per_event"]. *)
let rec float_at doc = function
  | [] -> J.to_float doc
  | key :: rest -> Option.bind (J.member key doc) (fun v -> float_at v rest)

(* Find the element of a JSON list whose [key] field is [value] — how
   the BENCH artifacts key their per-mode / per-kernel rows. *)
let find_by doc ~field ~key ~value =
  match Option.bind (J.member field doc) J.to_list_opt with
  | None -> None
  | Some rows ->
      List.find_opt
        (fun row ->
          match Option.bind (J.member key row) J.to_string_opt with
          | Some s -> s = value
          | None -> false)
        rows
