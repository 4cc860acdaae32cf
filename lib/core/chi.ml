type config = {
  tau : float;
  th_single : float;
  th_combined : float;
  learning_rounds : int;
  min_suspicious : int;
}

let default_config =
  { tau = 2.0; th_single = 0.99; th_combined = 0.99; learning_rounds = 5;
    min_suspicious = 1 }

(* In-flight guard before round end, seconds. *)
let slack = 0.3

(* Lower bound on the calibrated sigma, bytes. *)
let sigma_floor = 40.0

type loss = {
  fp : int64;
  size : int;
  flow : int;
  time : float;
  qpred : float;
  confidence : float;
}

type report = {
  round : int;
  start_time : float;
  end_time : float;
  arrivals : int;
  departures : int;
  losses : loss list;
  fabricated : int;
  predicted_congestive : int;
  c_single_max : float;
  c_combined : float option;
  victims : int list;  (* flows with individually-malicious losses *)
  alarm : bool;
  learning : bool;
}

type t = {
  qmon : Qmon.t;
  config : config;
  qlimit : float;
  router : int;
  next : int;
  probe : Netsim.Probe.t option;
  ctrl : Ctrl.t option;
  error : Mrstats.Welford.t;
  mutable error_samples_rev : float list;
  mutable error_sample_count : int;
  qpred : qcell;  (* replayed occupancy, updated without boxing *)
  mutable round : int;
  mutable reports_rev : report list;
  (* Graceful degradation under a faulty control plane: rounds whose
     departure report never arrived (alarm suppressed, never an
     accusation) and the consecutive-refusal streak that eventually
     judges the reporter fail-stop. *)
  mutable rounds_degraded : int;
  mutable mute_streak : int;
  mutable failstopped : bool;
}

and qcell = { mutable q : float }

let mu_sigma t =
  let sigma = Float.max sigma_floor (Mrstats.Welford.stddev t.error) in
  (Mrstats.Welford.mean t.error, sigma)

let c_single t ~qpred ~size =
  let mu, sigma = mu_sigma t in
  (* Fig 6.2: the loss is malicious iff there was room in the queue, i.e.
     X = q_act - q_pred satisfies X + q_pred + ps <= q_limit. *)
  Mrstats.Erf.normal_cdf ~mu ~sigma (t.qlimit -. qpred -. float_of_int size)

(* The per-event rule over Qmon's replay: q_pred follows the replayed
   queue, and each loss gets its c_single confidence. *)
let process_round t (data : Qmon.round_data) ~horizon ~learning =
  let losses = ref [] in
  let qpred = t.qpred in
  Qmon.replay t.qmon data ~horizon
    ~depart:(fun v i ->
      let q = qpred.q -. float_of_int (Qmon.size v i) in
      qpred.q <- (if q > 0.0 then q else 0.0))
    ~arrive:(fun v i ~admitted ->
      if admitted then begin
        (* Calibrate the prediction error if the trusted occupancy
           sample is available. *)
        (if learning then
           match Qmon.occupancy v i with
           | Some occ ->
               let err = float_of_int occ -. qpred.q in
               Mrstats.Welford.add t.error err;
               if t.error_sample_count < 100_000 then begin
                 t.error_sample_count <- t.error_sample_count + 1;
                 t.error_samples_rev <- err :: t.error_samples_rev
               end
           | None -> ());
        qpred.q <- qpred.q +. float_of_int (Qmon.size v i)
      end
      else begin
        let size = Qmon.size v i and q = qpred.q in
        let confidence = c_single t ~qpred:q ~size in
        losses :=
          { fp = Qmon.fp v i; size; flow = Qmon.flow v i; time = Qmon.time v i;
            qpred = q; confidence }
          :: !losses
      end);
  List.rev !losses

let evaluate t ~losses ~fabricated ~learning =
  let n = List.length losses in
  let c_single_max = List.fold_left (fun acc l -> Float.max acc l.confidence) 0.0 losses in
  let suspicious_n =
    List.length (List.filter (fun l -> l.confidence >= t.config.th_single) losses)
  in
  let c_combined =
    if n < 2 then None
    else begin
      let mu, sigma = mu_sigma t in
      let mean f = List.fold_left (fun acc l -> acc +. f l) 0.0 losses /. float_of_int n in
      Some
        (Mrstats.Ztest.combined_loss_confidence ~qlimit:t.qlimit
           ~mean_qpred:(mean (fun l -> l.qpred))
           ~mean_ps:(mean (fun l -> float_of_int l.size))
           ~mu ~sigma ~n)
    end
  in
  let alarm =
    (not learning)
    && (fabricated > 0
       || suspicious_n >= t.config.min_suspicious
       || match c_combined with Some c -> c >= t.config.th_combined | None -> false)
  in
  (c_single_max, c_combined, alarm)

let run_round t ~start_time ~end_time ~learning ~degraded =
  let horizon = end_time -. slack in
  let data = Qmon.drain t.qmon ~horizon in
  let losses = process_round t data ~horizon ~learning in
  let fabricated = data.Qmon.fabricated in
  let c_single_max, c_combined, alarm = evaluate t ~losses ~fabricated ~learning in
  (* A round whose departure report never arrived has no trustworthy
     replay: suppress the alarm rather than accuse on partial data. *)
  let alarm = alarm && not degraded in
  let predicted_congestive =
    List.length (List.filter (fun l -> l.confidence < t.config.th_single) losses)
  in
  let victims =
    (* Name a flow only on repeated individually-malicious losses within
       the round: one borderline packet is not an attribution. *)
    let counts = Hashtbl.create 8 in
    List.iter
      (fun l ->
        if l.confidence >= t.config.th_single then
          Hashtbl.replace counts l.flow
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts l.flow)))
      losses;
    List.sort compare
      (Hashtbl.fold (fun flow c acc -> if c >= 2 then flow :: acc else acc) counts [])
  in
  let report =
    { round = t.round; start_time; end_time;
      arrivals = Qmon.length data.Qmon.arrivals;
      departures = Qmon.length data.Qmon.departures;
      losses; fabricated; predicted_congestive; c_single_max; c_combined; victims;
      alarm; learning }
  in
  t.round <- t.round + 1;
  t.reports_rev <- report :: t.reports_rev;
  match t.probe with
  | None -> ()
  | Some probe ->
      let track = Printf.sprintf "chi r%d" t.router in
      let round_span =
        Netsim.Probe.trace_span probe ~track
          ~name:(Printf.sprintf "chi round %d" report.round)
          ~cat:"round" ~start:start_time ~finish:end_time ~routers:[ t.router ]
          ~args:
            [ ("arrivals", Telemetry.Export.Int report.arrivals);
              ("departures", Telemetry.Export.Int report.departures);
              ("losses", Telemetry.Export.Int (List.length losses));
              ("fabricated", Telemetry.Export.Int fabricated);
              ("learning", Telemetry.Export.Bool learning) ]
          ()
      in
      if not learning then begin
        (* Evidence: the individually-suspicious losses this verdict
           rests on, plus the round span itself. *)
        let loss_evidence =
          List.filter_map
            (fun l ->
              if l.confidence >= t.config.th_single then
                Netsim.Probe.trace_instant probe ~track ~name:"suspicious-loss"
                  ~cat:"evidence" ~time:l.time ~routers:[ t.router ]
                  ~args:
                    [ ("flow", Telemetry.Export.Int l.flow);
                      ("size", Telemetry.Export.Int l.size);
                      ("qpred", Telemetry.Export.Float l.qpred);
                      ("confidence", Telemetry.Export.Float l.confidence) ]
                  ()
              else None)
            losses
        in
        Netsim.Probe.record_verdict probe ~time:end_time ~detector:"chi"
          ~subject:t.router ~suspects:victims ~confidence:c_single_max ~alarm
          ~detail:
            (Printf.sprintf "round=%d losses=%d fabricated=%d" report.round
               (List.length losses) fabricated)
          ~evidence:(Option.to_list round_span @ loss_evidence)
          ()
      end

let deploy ~net ~rt ~router ~next ?(config = default_config) ?predict ?skew ?probe
    ?ctrl () =
  let key = Crypto_sim.Siphash.key_of_string "chi-monitor" in
  let predict =
    match predict with Some p -> p | None -> Qmon.predict_of_routing rt ~router
  in
  let qmon = Qmon.attach ~net ~predict ~key ?skew ~router ~next () in
  let qlimit =
    match Netsim.Net.iface net ~src:router ~dst:next with
    | Some iface -> float_of_int (Netsim.Iface.queue_limit iface)
    | None -> invalid_arg "Chi.deploy: no such link"
  in
  let t =
    { qmon; config; qlimit; router; next; probe; ctrl;
      error = Mrstats.Welford.create ();
      error_samples_rev = []; error_sample_count = 0; qpred = { q = 0.0 };
      round = 0; reports_rev = [];
      rounds_degraded = 0; mute_streak = 0; failstopped = false }
  in
  Qmon.set_calibrating qmon true;
  let sim = Netsim.Net.sim net in
  let rec tick start_time () =
    let end_time = Netsim.Sim.now sim in
    let learning = t.round < config.learning_rounds in
    (* The downstream neighbour's departure report rides the (possibly
       faulty) control plane: an exhausted retry budget degrades the
       round instead of wedging it, and a persistently mute reporter is
       judged fail-stop — never accused of the drops χ cannot check. *)
    let degraded =
      match t.ctrl with
      | None -> false
      | Some ch -> (
          let tag = (((t.router * 8191) + t.next) * 8191) + t.round in
          match Ctrl.send ch ~now:end_time ~src:t.next ~dst:t.router ~tag () with
          | Ctrl.Delivered _ ->
              t.mute_streak <- 0;
              false
          | Ctrl.Timed_out _ ->
              t.rounds_degraded <- t.rounds_degraded + 1;
              t.mute_streak <- t.mute_streak + 1;
              true)
    in
    run_round t ~start_time ~end_time ~learning ~degraded;
    if t.mute_streak >= Ctrl.mute_rounds && not t.failstopped then begin
      t.failstopped <- true;
      match t.probe with
      | None -> ()
      | Some probe ->
          Netsim.Probe.record_verdict probe ~time:end_time ~detector:"chi"
            ~subject:t.next
            ~suspects:[ t.router; t.next ]
            ~alarm:false
            ~detail:
              (Printf.sprintf
                 "fail-stop: departure reports refused %d consecutive rounds \
                  — excised, not accused"
                 Ctrl.mute_rounds)
            ()
    end;
    if t.round >= config.learning_rounds then Qmon.set_calibrating qmon false;
    Netsim.Sim.schedule sim ~delay:config.tau (tick end_time)
  in
  Netsim.Sim.schedule sim ~delay:config.tau (tick 0.0);
  t

let set_predict t p = Qmon.set_predict t.qmon p

let reports t = List.rev t.reports_rev
let alarms t = List.filter (fun r -> r.alarm) (reports t)
let rounds_degraded t = t.rounds_degraded

let error_samples t = List.rev t.error_samples_rev
