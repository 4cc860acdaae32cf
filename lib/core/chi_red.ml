(* In-flight guard before round end, seconds. *)
let slack = 0.3

(* Alarm when P(RED explains the drops) < alpha. *)
let alpha = 1e-4

(* Bytes of slack for replay drift: a drop is individually certain only
   when the replayed EWMA is at least this far below min_th and the
   replayed queue at least this far from the limit. *)
let drift_margin = 6000.0

(* Warm-up rounds that never alarm. *)
let learning_rounds = 3

type loss = {
  fp : int64;
  size : int;
  flow : int;
  time : float;
  red_prob : float;
  avg : float;
  certain : bool;
}

type report = {
  round : int;
  start_time : float;
  end_time : float;
  arrivals : int;
  departures : int;
  losses : loss list;
  fabricated : int;
  expected_red_drops : float;
  tail_probability : float;
  cumulative_observed : int;
  cumulative_expected : float;
  cumulative_tail : float;
  suspect_flows : int list;
  alarm : bool;
  learning : bool;
}

type t = {
  qmon : Qmon.t;
  params : Netsim.Red.params;
  link_bw : float;
  (* replayed RED state, persistent across rounds *)
  mutable avg : float;
  mutable count : int;
  mutable occ : int;
  mutable idle_since : float option;
  mutable round : int;
  mutable reports_rev : report list;
  (* Cumulative evidence since the end of learning: catches attacks whose
     per-round excess hides inside RED's own noise (Figs 6.13-6.15). *)
  mutable cum_observed : int;
  mutable cum_mu : float;
  mutable cum_var : float;
  (* Per-flow cumulative evidence: a targeted attacker concentrates the
     excess on the victim flows, where it stands out of RED's noise long
     before it shows in the aggregate.  Unseeded: suspects are listed in
     its iteration order. *)
  cum_flows : (int, flow_acc) Hashtbl.t;
}

and flow_acc = { mutable f_obs : int; mutable f_mu : float; mutable f_var : float }

(* The per-event rule over Qmon's replay: RED's EWMA and drop count
   follow the replayed queue, and each arrival gets its drop
   probability. *)
let process_round t (data : Qmon.round_data) ~horizon =
  let losses = ref [] in
  let all_probs = ref [] in (* (flow, p) per arrival *)
  Qmon.replay t.qmon data ~horizon
    ~depart:(fun v i ->
      t.occ <- max 0 (t.occ - Qmon.size v i);
      if t.occ = 0 then t.idle_since <- Some (Qmon.time v i))
    ~arrive:(fun v i ~admitted ->
      let size = Qmon.size v i and flow = Qmon.flow v i and time = Qmon.time v i in
      (* Replay RED's deterministic side (§6.5.2). *)
      (match t.idle_since with
      | Some since when t.occ = 0 ->
          t.avg <-
            Netsim.Red.decay_avg t.params ~avg:t.avg ~idle:(time -. since)
              ~link_bw:t.link_bw;
          t.idle_since <- None
      | _ -> ());
      t.avg <- Netsim.Red.update_avg t.params ~avg:t.avg ~occupancy:t.occ;
      let forced = t.occ + size > t.params.Netsim.Red.limit_bytes in
      let pb0 = Netsim.Red.early_drop_probability t.params ~avg:t.avg ~count:0 in
      let p_red =
        if pb0 <= 0.0 then if forced then 1.0 else 0.0
        else if pb0 >= 1.0 then 1.0
        else begin
          t.count <- t.count + 1;
          let p = Netsim.Red.early_drop_probability t.params ~avg:t.avg ~count:t.count in
          if forced then 1.0 else p
        end
      in
      if pb0 <= 0.0 then t.count <- -1;
      all_probs := (flow, p_red) :: !all_probs;
      if admitted then t.occ <- t.occ + size
      else begin
        t.count <- 0;
        (* RED cannot drop below min_th (other than by overflow), so a
           drop with the replayed EWMA more than the drift margin below
           min_th — and room in the replayed queue — is individually
           malicious. *)
        let certain =
          (not forced)
          && t.avg < t.params.Netsim.Red.min_th -. drift_margin
          && float_of_int (t.occ + size)
             <= float_of_int t.params.Netsim.Red.limit_bytes -. drift_margin
        in
        losses :=
          { fp = Qmon.fp v i; size; flow; time; red_prob = p_red; avg = t.avg;
            certain }
          :: !losses
      end);
  (List.rev !losses, Array.of_list (List.rev !all_probs))

let run_round t ~start_time ~end_time ~learning =
  let horizon = end_time -. slack in
  let data = Qmon.drain t.qmon ~horizon in
  let losses, probs = process_round t data ~horizon in
  let fabricated = data.Qmon.fabricated in
  (* Only genuinely stochastic arrivals enter the statistic: where the
     replay says p = 1 (EWMA beyond max_th or physical overflow) a drop
     carries no information, and a replay/reality mismatch there would
     otherwise bias the expectation. *)
  let stochastic =
    List.filter (fun (_, p) -> p < 0.999) (Array.to_list probs)
  in
  let stochastic_losses = List.filter (fun l -> l.red_prob < 0.999) losses in
  let observed = List.length stochastic_losses in
  let expected_red_drops = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 stochastic in
  let probs = Array.of_list (List.map snd stochastic) in
  let tail_probability =
    Mrstats.Ztest.poisson_binomial_upper_tail ~probs ~observed
  in
  let any_certain = List.exists (fun l -> l.certain) losses in
  if not learning then begin
    t.cum_observed <- t.cum_observed + observed;
    t.cum_mu <- t.cum_mu +. expected_red_drops;
    t.cum_var <-
      t.cum_var +. Array.fold_left (fun acc p -> acc +. (p *. (1.0 -. p))) 0.0 probs;
    let acc_of flow =
      match Hashtbl.find_opt t.cum_flows flow with
      | Some a -> a
      | None ->
          let a = { f_obs = 0; f_mu = 0.0; f_var = 0.0 } in
          Hashtbl.add t.cum_flows flow a;
          a
    in
    List.iter
      (fun (flow, p) ->
        let a = acc_of flow in
        a.f_mu <- a.f_mu +. p;
        a.f_var <- a.f_var +. (p *. (1.0 -. p)))
      stochastic;
    List.iter (fun l -> let a = acc_of l.flow in a.f_obs <- a.f_obs + 1)
      stochastic_losses
  end;
  let cumulative_tail =
    if t.cum_var <= 1e-9 then 1.0
    else begin
      let z = (float_of_int t.cum_observed -. 0.5 -. t.cum_mu) /. sqrt t.cum_var in
      1.0 -. Mrstats.Erf.normal_cdf z
    end
  in
  (* The cumulative alarms additionally require a material excess so that
     a small systematic replay bias cannot accumulate into a false
     positive. *)
  let cumulative_excess =
    float_of_int t.cum_observed -. t.cum_mu > (0.01 *. t.cum_mu) +. 5.0
  in
  (* Per-flow stratified test with Bonferroni correction. *)
  let nflows = max 1 (Hashtbl.length t.cum_flows) in
  let flow_alpha = alpha /. float_of_int nflows in
  let suspect_flows =
    Hashtbl.fold
      (fun flow a acc ->
        let excess = float_of_int a.f_obs -. a.f_mu in
        if excess > (0.05 *. a.f_mu) +. 5.0 && a.f_var > 1e-9 then begin
          let z = (float_of_int a.f_obs -. 0.5 -. a.f_mu) /. sqrt a.f_var in
          if 1.0 -. Mrstats.Erf.normal_cdf z < flow_alpha then flow :: acc else acc
        end
        else acc)
      t.cum_flows []
  in
  let alarm =
    (not learning)
    && (fabricated > 0 || any_certain
       || (observed > 0 && tail_probability < alpha)
       || (cumulative_excess && cumulative_tail < alpha)
       || suspect_flows <> [])
  in
  let report =
    { round = t.round; start_time; end_time;
      arrivals = Qmon.length data.Qmon.arrivals;
      departures = Qmon.length data.Qmon.departures;
      losses; fabricated; expected_red_drops; tail_probability;
      cumulative_observed = t.cum_observed; cumulative_expected = t.cum_mu;
      cumulative_tail; suspect_flows; alarm; learning }
  in
  t.round <- t.round + 1;
  t.reports_rev <- report :: t.reports_rev

let deploy ~net ~rt ~router ~next ~params ?(tau = 2.0) () =
  let key = Crypto_sim.Siphash.key_of_string "chi-red-monitor" in
  let predict = Qmon.predict_of_routing rt ~router in
  let qmon = Qmon.attach ~net ~predict ~key ~router ~next () in
  let link_bw =
    match Netsim.Net.iface net ~src:router ~dst:next with
    | Some iface -> (Netsim.Iface.link iface).Topology.Graph.bw
    | None -> invalid_arg "Chi_red.deploy: no such link"
  in
  let t =
    { qmon; params; link_bw; avg = 0.0; count = -1; occ = 0;
      idle_since = Some 0.0; round = 0; reports_rev = [];
      cum_observed = 0; cum_mu = 0.0; cum_var = 0.0; cum_flows = Hashtbl.create ~random:false 16 }
  in
  let sim = Netsim.Net.sim net in
  let rec tick start_time () =
    let end_time = Netsim.Sim.now sim in
    let learning = t.round < learning_rounds in
    run_round t ~start_time ~end_time ~learning;
    Netsim.Sim.schedule sim ~delay:tau (tick end_time)
  in
  Netsim.Sim.schedule sim ~delay:tau (tick 0.0);
  t

let reports t = List.rev t.reports_rev
let alarms t = List.filter (fun r -> r.alarm) (reports t)
