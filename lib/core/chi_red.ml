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

(* Only genuinely stochastic arrivals enter the statistic, those whose
   replayed drop probability is below this: where the replay says p = 1
   (EWMA beyond max_th or physical overflow) a drop carries no
   information, and a replay/reality mismatch there would otherwise
   bias the expectation. *)
let stochastic_below = 0.999

(* A round's stochastic arrivals, their flows and replayed drop
   probabilities in arrival order: flat buffers (a [float array] stores
   its floats unboxed) reused from round to round. *)
type arrivals = { mutable flows : int array; mutable probs : float array; mutable n : int }

type t = {
  qmon : Qmon.t;
  params : Netsim.Red.params;
  link_bw : float;
  (* Replayed RED state, persistent across rounds: the EWMA in RED's own
     float-only record, updated in place, and the drop counter, the
     replayed occupancy and whether the replayed queue is idle (since
     [red.idle_since]). *)
  red : Netsim.Red.state;
  mutable count : int;
  mutable occ : int;
  mutable idle : bool;
  arrivals : arrivals;
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

(* A flow's losses, and the sums of its arrivals' drop probabilities in
   a float-only record, so adding an arrival boxes nothing. *)
and flow_acc = { mutable f_obs : int; f : flow_sums }

and flow_sums = { mutable mu : float; mutable var : float }

let grow_arrivals a =
  let cap = max 64 (2 * a.n) in
  let flows = Array.make cap 0 and probs = Array.make cap 0.0 in
  Array.blit a.flows 0 flows 0 a.n;
  Array.blit a.probs 0 probs 0 a.n;
  a.flows <- flows;
  a.probs <- probs

(* The per-event rule over Qmon's replay: RED's EWMA and drop count
   follow the replayed queue, and each arrival gets its drop
   probability, kept in [t.arrivals] when it is stochastic. *)
let process_round t (data : Qmon.round_data) ~horizon =
  let losses = ref [] in
  let red = t.red and clock = Qmon.replay_clock t.qmon in
  t.arrivals.n <- 0;
  Qmon.replay t.qmon data ~horizon
    ~depart:(fun v i ->
      t.occ <- max 0 (t.occ - Qmon.size v i);
      if t.occ = 0 then begin
        t.idle <- true;
        red.idle_since <- clock.f
      end)
    ~arrive:(fun v i ~admitted ->
      let size = Qmon.size v i and flow = Qmon.flow v i in
      (* Replay RED's deterministic side (§6.5.2). *)
      if t.idle && t.occ = 0 then begin
        Netsim.Red.decay_avg t.params red ~now:clock ~link_bw:t.link_bw;
        t.idle <- false
      end;
      Netsim.Red.update_avg t.params red ~occupancy:t.occ;
      let forced = t.occ + size > t.params.Netsim.Red.limit_bytes in
      Netsim.Red.early_drop_probability t.params red ~count:0;
      let pb0 = red.drop_p in
      let p_red =
        if pb0 <= 0.0 then if forced then 1.0 else 0.0
        else if pb0 >= 1.0 then 1.0
        else begin
          t.count <- t.count + 1;
          Netsim.Red.early_drop_probability t.params red ~count:t.count;
          if forced then 1.0 else red.drop_p
        end
      in
      if pb0 <= 0.0 then t.count <- -1;
      (* Stored here: passed to a function, [p_red] would be boxed. *)
      let a = t.arrivals in
      if p_red < stochastic_below then begin
        if a.n = Array.length a.flows then grow_arrivals a;
        a.flows.(a.n) <- flow;
        a.probs.(a.n) <- p_red;
        a.n <- a.n + 1
      end;
      if admitted then t.occ <- t.occ + size
      else begin
        t.count <- 0;
        (* RED cannot drop below min_th (other than by overflow), so a
           drop with the replayed EWMA more than the drift margin below
           min_th — and room in the replayed queue — is individually
           malicious. *)
        let certain =
          (not forced)
          && red.avg < t.params.Netsim.Red.min_th -. drift_margin
          && float_of_int (t.occ + size)
             <= float_of_int t.params.Netsim.Red.limit_bytes -. drift_margin
        in
        losses :=
          { fp = Qmon.fp v i; size; flow; time = clock.f; red_prob = p_red;
            avg = red.avg; certain }
          :: !losses
      end);
  List.rev !losses

let run_round t ~start_time ~end_time ~learning =
  let horizon = end_time -. slack in
  let data = Qmon.drain t.qmon ~horizon in
  let losses = process_round t data ~horizon in
  let fabricated = data.Qmon.fabricated in
  let a = t.arrivals in
  let mu = ref 0.0 and var = ref 0.0 in
  for i = 0 to a.n - 1 do
    let p = a.probs.(i) in
    mu := !mu +. p;
    var := !var +. (p *. (1.0 -. p))
  done;
  let expected_red_drops = !mu and var = !var in
  let stochastic_losses = List.filter (fun l -> l.red_prob < stochastic_below) losses in
  let observed = List.length stochastic_losses in
  (* The tail is 1 without a loss: only a round with one copies the
     probabilities out. *)
  let tail_probability =
    if observed <= 0 then 1.0
    else
      Mrstats.Ztest.poisson_binomial_upper_tail ~probs:(Array.sub a.probs 0 a.n) ~observed
  in
  let any_certain = List.exists (fun l -> l.certain) losses in
  if not learning then begin
    t.cum_observed <- t.cum_observed + observed;
    t.cum_mu <- t.cum_mu +. expected_red_drops;
    t.cum_var <- t.cum_var +. var;
    let acc_of flow =
      match Hashtbl.find t.cum_flows flow with
      | a -> a
      | exception Not_found ->
          let a = { f_obs = 0; f = { mu = 0.0; var = 0.0 } } in
          Hashtbl.add t.cum_flows flow a;
          a
    in
    for i = 0 to a.n - 1 do
      let acc = acc_of a.flows.(i) and p = a.probs.(i) in
      acc.f.mu <- acc.f.mu +. p;
      acc.f.var <- acc.f.var +. (p *. (1.0 -. p))
    done;
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
        let excess = float_of_int a.f_obs -. a.f.mu in
        if excess > (0.05 *. a.f.mu) +. 5.0 && a.f.var > 1e-9 then begin
          let z = (float_of_int a.f_obs -. 0.5 -. a.f.mu) /. sqrt a.f.var in
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
    { qmon; params; link_bw; red = { avg = 0.0; idle_since = 0.0; drop_p = 0.0 };
      count = -1; occ = 0; idle = true;
      arrivals = { flows = [||]; probs = [||]; n = 0 };
      round = 0; reports_rev = [];
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
