type outcome = {
  verdicts : int;
  alarms : int;
  true_alarms : int;
  false_alarms : int;
  detected : int list;
  falsely_accused : int list;
  precision : float;
  recall : float;
  false_accusation_rate : float;
  detection_latency : float option;
  latency_hist : Telemetry.Hist.t;
  faults_injected : int;
  byzantine : int list;
  framing_attempts : int;
  forgeries_rejected : int;
  forgeries_accepted : int;
  equivocations_detected : int;
  mute_refusals : int;
  framed_honest : int;
  alpha_violations : int;
}

(* Same geometry as {!Netsim.Stats}' detection-latency histogram, so
   oracle quantiles and the always-on stats layer bucket identically. *)
let latency_hist_create () = Telemetry.Hist.create ~buckets:20 ~min_exp:(-4) ()

let implicated (v : Netsim.Probe.verdict) =
  match v.Telemetry.Span.subject with
  | Some s -> [ s ]
  | None -> v.Telemetry.Span.suspects

let score ~malicious ?(byzantine = []) ?(attack_start = 0.0)
    ?(faults_injected = 0) ?byz_stats verdicts =
  (* α-accuracy ground truth: a router is faulty if it is either
     traffic-faulty (drops/modifies packets) or protocol-faulty (lies
     inside the detection protocol).  An alarm implicating neither kind
     is an α-accuracy violation. *)
  let is_faulty r = List.mem r malicious || List.mem r byzantine in
  let n_verdicts = List.length verdicts in
  let alarms = List.filter (fun (v : Netsim.Probe.verdict) -> v.alarm) verdicts in
  let detected = ref [] in
  let falsely_accused = ref [] in
  let true_alarms = ref 0 in
  let false_alarms = ref 0 in
  let framed_honest = ref 0 in
  let first_true = ref None in
  let latency_hist = latency_hist_create () in
  List.iter
    (fun (v : Netsim.Probe.verdict) ->
      let accused = implicated v in
      let hits = List.filter is_faulty accused in
      (* A conviction-by-name of an honest router: the framing failure
         mode, counted even when the suspect list happens to also hold
         a faulty router. *)
      (match v.Telemetry.Span.subject with
      | Some s when not (is_faulty s) -> incr framed_honest
      | _ -> ());
      if hits <> [] then begin
        incr true_alarms;
        Telemetry.Hist.record latency_hist (v.Telemetry.Span.time -. attack_start);
        List.iter
          (fun r -> if not (List.mem r !detected) then detected := r :: !detected)
          hits;
        match !first_true with
        | Some t when t <= v.Telemetry.Span.time -> ()
        | _ -> first_true := Some v.Telemetry.Span.time
      end
      else begin
        incr false_alarms;
        List.iter
          (fun r ->
            if not (List.mem r !falsely_accused) then
              falsely_accused := r :: !falsely_accused)
          accused
      end)
    alarms;
  let n_alarms = List.length alarms in
  let n_malicious = List.length (List.sort_uniq compare malicious) in
  let recall_hits =
    List.length (List.filter (fun r -> List.mem r malicious) !detected)
  in
  { verdicts = n_verdicts;
    alarms = n_alarms;
    true_alarms = !true_alarms;
    false_alarms = !false_alarms;
    detected = List.sort compare !detected;
    falsely_accused = List.sort compare !falsely_accused;
    precision =
      (if n_alarms = 0 then 1.0
       else float_of_int !true_alarms /. float_of_int n_alarms);
    recall =
      (if n_malicious = 0 then 1.0
       else float_of_int recall_hits /. float_of_int n_malicious);
    false_accusation_rate =
      (if n_verdicts = 0 then 0.0
       else float_of_int !false_alarms /. float_of_int n_verdicts);
    detection_latency = Option.map (fun t -> t -. attack_start) !first_true;
    latency_hist;
    faults_injected;
    byzantine = List.sort_uniq compare byzantine;
    framing_attempts =
      (match byz_stats with
      | Some (s : Core.Byz.stats) -> s.Core.Byz.framing_attempts
      | None -> 0);
    forgeries_rejected =
      (match byz_stats with
      | Some s -> s.Core.Byz.forgeries_rejected
      | None -> 0);
    forgeries_accepted =
      (match byz_stats with
      | Some s -> s.Core.Byz.forgeries_accepted
      | None -> 0);
    equivocations_detected =
      (match byz_stats with Some s -> s.Core.Byz.equivocations | None -> 0);
    mute_refusals =
      (match byz_stats with Some s -> s.Core.Byz.mute_refusals | None -> 0);
    framed_honest = !framed_honest;
    (* An alarming verdict that implicates no faulty router at all:
       exactly the event the α-accuracy bar forbids. *)
    alpha_violations = !false_alarms }

let of_probe ~malicious ?byzantine ?attack_start ?byz_stats probe =
  score ~malicious ?byzantine ?attack_start ?byz_stats
    ~faults_injected:(Netsim.Probe.faults_recorded probe)
    (Netsim.Probe.verdicts probe)

(* Quantiles over every true alarm's latency (not just the first):
   bucket upper bounds from the mergeable histogram, so the numbers are
   deterministic and identical however per-trial outcomes are merged. *)
let latency_quantiles_json h =
  let open Telemetry.Export in
  if Telemetry.Hist.count h = 0 then Null
  else
    Assoc
      [ ("count", Int (Telemetry.Hist.count h));
        ("mean", Float (Telemetry.Hist.mean h));
        ("p50", Float (Telemetry.Hist.p50 h));
        ("p95", Float (Telemetry.Hist.p95 h));
        ("p99", Float (Telemetry.Hist.p99 h)) ]

let json_of_outcome o =
  let open Telemetry.Export in
  Assoc
    [ ("verdicts", Int o.verdicts);
      ("alarms", Int o.alarms);
      ("true_alarms", Int o.true_alarms);
      ("false_alarms", Int o.false_alarms);
      ("detected", List (List.map (fun r -> Int r) o.detected));
      ("falsely_accused", List (List.map (fun r -> Int r) o.falsely_accused));
      ("precision", Float o.precision);
      ("recall", Float o.recall);
      ("false_accusation_rate", Float o.false_accusation_rate);
      ( "detection_latency",
        match o.detection_latency with Some l -> Float l | None -> Null );
      ("detection_latency_quantiles", latency_quantiles_json o.latency_hist);
      ("faults_injected", Int o.faults_injected);
      ("byzantine", List (List.map (fun r -> Int r) o.byzantine));
      ("framing_attempts", Int o.framing_attempts);
      ("forgeries_rejected", Int o.forgeries_rejected);
      ("forgeries_accepted", Int o.forgeries_accepted);
      ("equivocations_detected", Int o.equivocations_detected);
      ("mute_refusals", Int o.mute_refusals);
      ("framed_honest", Int o.framed_honest);
      ("alpha_violations", Int o.alpha_violations) ]

let json_report o =
  let open Telemetry.Export in
  Assoc
    [ ("schema", String "mrdetect-robustness-v1"); ("report", json_of_outcome o) ]

let merge_json outcomes =
  let open Telemetry.Export in
  let fold f init = List.fold_left f init outcomes in
  let worst_precision = fold (fun acc o -> Float.min acc o.precision) 1.0 in
  let worst_recall = fold (fun acc o -> Float.min acc o.recall) 1.0 in
  let worst_far = fold (fun acc o -> Float.max acc o.false_accusation_rate) 0.0 in
  let total_false = fold (fun acc o -> acc + o.false_alarms) 0 in
  let total_framing = fold (fun acc o -> acc + o.framing_attempts) 0 in
  let total_rejected = fold (fun acc o -> acc + o.forgeries_rejected) 0 in
  let total_framed = fold (fun acc o -> acc + o.framed_honest) 0 in
  let total_alpha = fold (fun acc o -> acc + o.alpha_violations) 0 in
  (* Exact integer merge of the per-run histograms: the aggregate
     quantiles are byte-identical whatever order the runs arrive in. *)
  let merged_latency = latency_hist_create () in
  List.iter
    (fun o -> Telemetry.Hist.merge_into ~into:merged_latency o.latency_hist)
    outcomes;
  Assoc
    [ ("schema", String "mrdetect-robustness-v1");
      ("runs", List (List.map json_of_outcome outcomes));
      ( "aggregate",
        Assoc
          [ ("worst_precision", Float worst_precision);
            ("worst_recall", Float worst_recall);
            ("worst_false_accusation_rate", Float worst_far);
            ("total_false_alarms", Int total_false);
            ("total_framing_attempts", Int total_framing);
            ("total_forgeries_rejected", Int total_rejected);
            ("total_framed_honest", Int total_framed);
            ("total_alpha_violations", Int total_alpha);
            ( "detection_latency_quantiles",
              latency_quantiles_json merged_latency ) ] ) ]
