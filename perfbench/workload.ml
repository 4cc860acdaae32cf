(* The benchmark's workloads: one spec table, the scenario builder every
   mode shares, and the checks on each run's outputs.

   A row is the paper's system as a user runs it: a topology, open-loop
   CBR traffic at a fixed rate and packet size inside the simulator, and
   one detector deployed through the same public [deploy] calls
   [Core.Detectors] makes (so the protocols' own counters stay
   reachable).  Packet size is fixed: [Packet.fingerprint] hashes header
   words, not payload, so size does not change per-hop work.  What
   varies is topology size, detector, faults and congestion. *)

module Net = Netsim.Net

type detector = Bare | Fatih | Pi2 | Chi

type spec = {
  name : string;
  topo : string;  (** topology spec string, see {!graph_of_spec} *)
  pairs : int;  (** CBR pairs; [n(n-1)] or more means every ordered pair *)
  horizon : float;  (** simulated seconds *)
  detector : detector;
  byzantine : bool;
      (** a [Chaos.byzantine_budget] plan injected, with probe and Stats *)
  attack : bool;
      (** the router most flows transit drops 20% of transit packets from
          horizon/3 on *)
  smoke : float;
      (** the smoke check's horizon: the shortest at which a judged round
          follows the attack onset, so every check still applies *)
}

let rate_pps = 80.0
let packet_size = 500
let jitter_bound = 200e-6
let drop_fraction = 0.2

(* Traffic matrices and fault plans are drawn once from this seed: they
   are part of a workload's definition.  The run seed drives the
   simulation's own random streams (per-packet processing jitter, the
   adversary's drop coin), so a seed changes a run's inputs without
   changing how much work the run holds; drawing the matrix from the run
   seed moved wall time and words per hop by 5-10% between seeds. *)
let input_seed = 1

(* Why each row exists:
   - fwd-sprint315: the bare forwarding plane (Sim, event heap, Iface,
     Router, packet pool); the control for detector and telemetry work.
   - fatih-sprint315: a detector at ISP scale; per-hop fingerprinting
     into ~15k segment summaries, then a reroute through policy routing.
   - pi2-abilene-byz: the only row where the control channel, Byzantine
     roles, fault injector, probe and Stats do work.
   - chi-ring8-tcp: a congested drop-tail queue with TCP retransmits;
     the queue replay and Z-tests run, no segment summaries. *)
let table =
  [ { name = "fwd-sprint315"; topo = "sprintlink"; pairs = 256; horizon = 20.0;
      detector = Bare; byzantine = false; attack = false; smoke = 2.0 };
    { name = "fatih-sprint315"; topo = "sprintlink"; pairs = 16; horizon = 24.0;
      detector = Fatih; byzantine = false; attack = true; smoke = 12.0 };
    { name = "pi2-abilene-byz"; topo = "abilene"; pairs = 64; horizon = 20.0;
      detector = Pi2; byzantine = true; attack = true; smoke = 12.0 };
    (* chi calibrates for 5 rounds of 2 s before it judges. *)
    { name = "chi-ring8-tcp"; topo = "ring,8"; pairs = 56; horizon = 80.0;
      detector = Chi; byzantine = false; attack = true; smoke = 36.0 } ]

let find name = List.find_opt (fun s -> s.name = name) table

let attack_start spec = spec.horizon /. 3.0

let graph_of_spec s =
  match String.split_on_char ',' s with
  | [ "sprintlink" ] -> Topology.Generate.sprintlink_like ()
  | [ "ebone" ] -> Topology.Generate.ebone_like ()
  | [ "abilene" ] -> Topology.Abilene.graph ()
  | [ "ring"; n ] -> Topology.Generate.ring ~n:(int_of_string n)
  | [ "grid"; r; c ] ->
      Topology.Generate.grid ~rows:(int_of_string r) ~cols:(int_of_string c)
  | _ -> invalid_arg (Printf.sprintf "unknown topology spec %S" s)

(* [count] distinct ordered pairs drawn from {!input_seed}, or every
   ordered pair when there are not more than [count]. *)
let choose_pairs ~n ~count =
  if count >= n * (n - 1) then
    List.concat_map
      (fun s -> List.filter_map (fun d -> if s <> d then Some (s, d) else None)
                  (List.init n Fun.id))
      (List.init n Fun.id)
  else begin
    let rng = Random.State.make [| input_seed; 0xbe4c |] in
    let seen = Hashtbl.create count in
    let rec draw acc k =
      if k = count then List.rev acc
      else begin
        let s = Random.State.int rng n and d = Random.State.int rng n in
        if s = d || Hashtbl.mem seen (s, d) then draw acc k
        else begin
          Hashtbl.add seen (s, d) ();
          draw ((s, d) :: acc) (k + 1)
        end
      end
    in
    draw [] 0
  end

(* The router the most flows transit (lowest id on ties). *)
let busiest_transit rt ~n pairs =
  let load = Array.make n 0 in
  List.iter
    (fun (src, dst) ->
      match Topology.Routing.path rt ~src ~dst with
      | Some p ->
          let last = List.length p - 1 in
          List.iteri (fun i r -> if i > 0 && i < last then load.(r) <- load.(r) + 1) p
      | None -> ())
    pairs;
  let best = ref 0 in
  Array.iteri (fun r l -> if l > load.(!best) then best := r) load;
  !best

(* Which layers a build deploys: the traced pass ablates them. *)
type layers = { observe : bool; detect : bool }

let dataplane = { observe = false; detect = false }
let observed = { observe = true; detect = false }
let full = { observe = true; detect = true }

type deployed =
  | No_detector
  | Fatih_d of Core.Fatih.t
  | Pi2_d of Core.Pi2_live.t
  | Chi_d of Core.Chi.t

type t = {
  spec : spec;
  graph : Topology.Graph.t;
  rt : Topology.Routing.t;
  net : Net.t;
  pairs : (int * int) list;
  flows : Netsim.Flow.t list;
  attacker : int option;
  probe : Netsim.Probe.t option;
  ctrl : Core.Ctrl.t option;
  byz : Core.Byz.t option;
  deployed : deployed;
}

(* A hook around each call into a layer during setup; the traced pass
   records a span per call. *)
type step = { step : 'a. string -> (unit -> 'a) -> 'a }

let untimed = { step = (fun _ f -> f ()) }

let build ?(layers = full) ?(step = untimed) spec ~seed =
  let { step } = step in
  let graph = step "topology.generate" (fun () -> graph_of_spec spec.topo) in
  let n = Topology.Graph.size graph in
  let rt = step "topology.routing" (fun () -> Topology.Routing.compute graph) in
  let observe = layers.observe && spec.byzantine in
  let net, probe =
    step "netsim.build" (fun () ->
        let net = Net.create ~seed ~jitter_bound ~pooling:true graph in
        Net.use_routing net rt;
        let probe =
          if observe then Some (Netsim.Probe.create ~journal_capacity:4096 ())
          else None
        in
        Net.set_probe net probe;
        Option.iter
          (fun st -> Netsim.Stats.set_attack_start st (attack_start spec))
          (Net.stats net);
        (net, probe))
  in
  let pairs, flows, attacker =
    step "netsim.traffic" (fun () ->
        let pairs = choose_pairs ~n ~count:spec.pairs in
        let flows =
          List.map
            (fun (src, dst) ->
              Netsim.Flow.cbr net ~src ~dst ~rate_pps ~size:packet_size
                ~start:0.0 ~stop:spec.horizon)
            pairs
        in
        let attacker =
          if spec.attack then Some (busiest_transit rt ~n pairs) else None
        in
        Option.iter
          (fun a ->
            Netsim.Router.set_behavior (Net.router net a)
              (Core.Adversary.after (attack_start spec)
                 (Core.Adversary.drop_fraction ~seed drop_fraction)))
          attacker;
        (pairs, flows, attacker))
  in
  let ctrl, byz =
    step "faults.plan" (fun () ->
        match probe with
        | Some probe when spec.byzantine ->
            let plan =
              Faults.Chaos.generate ~seed:input_seed ~graph ~duration:spec.horizon
                ~budget:Faults.Chaos.byzantine_budget ()
            in
            ignore (Faults.Injector.apply ~probe ~net plan);
            let ctrl = Faults.Injector.ctrl plan in
            Option.iter
              (fun st ->
                Core.Ctrl.set_observer ctrl
                  (Some (fun ~attempts ~ok -> Netsim.Stats.on_ctrl_send st ~attempts ~ok)))
              (Net.stats net);
            (Some ctrl, Faults.Injector.byz ~n plan)
        | _ -> (None, None))
  in
  let deployed =
    step "core.deploy" (fun () ->
        if not layers.detect then No_detector
        else
          match spec.detector with
          | Bare -> No_detector
          | Fatih -> Fatih_d (Core.Fatih.deploy ~net ~rt ?probe ?ctrl ?byz ())
          | Pi2 -> Pi2_d (Core.Pi2_live.deploy ~net ~rt ?probe ?ctrl ?byz ())
          | Chi ->
              (* As the chi adapter: monitor the attacker's first output
                 queue, with a TCP connection through it so congestion
                 ambiguity exists. *)
              let router = Option.get attacker in
              let next = List.hd (Topology.Graph.out_neighbors graph router) in
              (match
                 List.filter (( <> ) next) (Topology.Graph.out_neighbors graph router)
               with
              | u :: _ -> ignore (Netsim.Tcp.connect net ~src:u ~dst:next ())
              | [] -> ());
              let config = { Core.Chi.default_config with Core.Chi.tau = 2.0 } in
              Chi_d (Core.Chi.deploy ~net ~rt ~router ~next ~config ?probe ?ctrl ()))
  in
  { spec; graph; rt; net; pairs; flows; attacker; probe; ctrl; byz; deployed }

(* Validation round length of the deployed detector; the bare plane
   uses the paper's default tau so its slices are classified alike. *)
let tau spec = match spec.detector with Chi -> 2.0 | Bare | Fatih | Pi2 -> 5.0

(* --- outputs -------------------------------------------------------- *)

let fold_ifaces t f init =
  let acc = ref init in
  for r = 0 to Topology.Graph.size t.graph - 1 do
    List.iter (fun i -> acc := f !acc i) (Netsim.Router.ifaces (Net.router t.net r))
  done;
  !acc

(* Packet-hops: serializations started onto any link. *)
let hops t = fold_ifaces t (fun acc i -> acc + Netsim.Iface.tx_packets i) 0
let iface_drops t = fold_ifaces t (fun acc i -> acc + Netsim.Iface.dropped_packets i) 0

let delivered t =
  let acc = ref 0 in
  for r = 0 to Topology.Graph.size t.graph - 1 do
    acc := !acc + Netsim.Router.delivered_packets (Net.router t.net r)
  done;
  !acc

let sent t = List.fold_left (fun acc f -> acc + Netsim.Flow.sent f) 0 t.flows

let interior = function
  | [] | [ _ ] | [ _; _ ] -> []
  | seg -> List.filteri (fun i _ -> i > 0 && i < List.length seg - 1) seg

(* Every verdict as (time, suspects), oldest first — the suspects the
   chi/fatih/pi2 adapters of [Core.Detectors] report. *)
let verdicts t =
  match t.deployed with
  | No_detector -> []
  | Fatih_d f ->
      List.map
        (fun (d : Core.Fatih.detection) -> (d.Core.Fatih.time, interior d.Core.Fatih.segment))
        (Core.Fatih.detections f)
  | Pi2_d p ->
      List.map
        (fun (d : Core.Pi2_live.detection) ->
          let a, b = d.Core.Pi2_live.pair in
          (d.Core.Pi2_live.time, [ a; b ]))
        (Core.Pi2_live.detections p)
  | Chi_d c ->
      List.map
        (fun (r : Core.Chi.report) -> (r.Core.Chi.end_time, Option.to_list t.attacker))
        (Core.Chi.alarms c)

let digest t =
  verdicts t
  |> List.map (fun (time, suspects) ->
         Printf.sprintf "%.6f:%s" time (String.concat "," (List.map string_of_int suspects)))
  |> String.concat ";" |> Digest.string |> Digest.to_hex

type check = { check : string; ok : bool; detail : string }

let checks t =
  let vs = verdicts t in
  let names_attacker (_, suspects) =
    match t.attacker with Some a -> List.mem a suspects | None -> false
  in
  let accuracy () =
    [ { check = "completeness"; ok = List.exists names_attacker vs;
        detail = Printf.sprintf "%d verdicts" (List.length vs) };
      { check = "alpha_accuracy"; ok = List.for_all names_attacker vs;
        detail =
          Printf.sprintf "%d verdicts name only honest routers"
            (List.length (List.filter (fun v -> not (names_attacker v)) vs)) } ]
  in
  match (t.spec.detector, t.deployed) with
  | Bare, _ ->
      let drops = iface_drops t and sent = sent t and delivered = delivered t in
      [ { check = "no_drops"; ok = drops = 0; detail = Printf.sprintf "%d drops" drops };
        { check = "delivered_99pct";
          ok = float_of_int delivered >= 0.99 *. float_of_int sent;
          detail = Printf.sprintf "%d of %d" delivered sent } ]
  | _, No_detector -> []  (* an ablation run: no detector to judge *)
  | (Fatih | Chi), _ -> accuracy ()
  | Pi2, _ -> (
      match t.probe with
      | None -> accuracy ()
      | Some probe ->
          let byzantine = match t.byz with Some bz -> Core.Byz.routers bz | None -> [] in
          let o =
            Faults.Oracle.of_probe ~malicious:(Option.to_list t.attacker) ~byzantine
              ?byz_stats:(Option.map Core.Byz.stats t.byz)
              ~attack_start:(attack_start t.spec) probe
          in
          let c = Netsim.Probe.conservation probe in
          let delivered = delivered t in
          [ { check = "alpha_violations"; ok = o.Faults.Oracle.alpha_violations = 0;
              detail = string_of_int o.Faults.Oracle.alpha_violations };
            { check = "framed_honest"; ok = o.Faults.Oracle.framed_honest = 0;
              detail = string_of_int o.Faults.Oracle.framed_honest };
            { check = "recall"; ok = o.Faults.Oracle.recall = 1.0;
              detail = Printf.sprintf "%.3f" o.Faults.Oracle.recall };
            { check = "conservation";
              ok = c.Netsim.Probe.in_flight >= 0
                   && c.Netsim.Probe.total_delivered = delivered;
              detail =
                Printf.sprintf "injected %d delivered %d (routers %d) dropped %d in flight %d"
                  c.Netsim.Probe.total_injected c.Netsim.Probe.total_delivered delivered
                  c.Netsim.Probe.total_dropped c.Netsim.Probe.in_flight } ])

(* Times of the routing installations the response engine made. *)
let reroute_times t =
  match t.deployed with
  | Fatih_d f ->
      List.map (fun (u : Core.Response.event) -> u.Core.Response.time)
        (Core.Response.updates (Core.Fatih.response f))
  | No_detector | Pi2_d _ | Chi_d _ -> []

(* Per-layer counts of a finished run, deterministic for a seed; the
   control channel's useful share is 1 - timeouts/sends (1 unused). *)
let counts t =
  let fatih = match t.deployed with Fatih_d f -> Some f | _ -> None in
  let chi = match t.deployed with Chi_d c -> Some c | _ -> None in
  let of_fatih f = match fatih with Some d -> f d | None -> 0 in
  let of_chi f = match chi with Some c -> f c | None -> 0 in
  let segments =
    match t.deployed with
    | Fatih_d f -> List.length (Core.Fatih.monitored_segments f)
    | Pi2_d _ ->
        (* Pi2_live monitors the same family: every 3-window of the
           routed paths. *)
        List.length (List.sort_uniq compare (Topology.Segments.pik2_family t.rt ~k:1))
    | No_detector | Chi_d _ -> 0
  in
  let degraded, excused =
    match t.deployed with
    | Fatih_d f -> (Core.Fatih.rounds_degraded f, Core.Fatih.rounds_excused f)
    | Pi2_d p -> (Core.Pi2_live.rounds_degraded p, Core.Pi2_live.rounds_excused p)
    | Chi_d c -> (Core.Chi.rounds_degraded c, 0)
    | No_detector -> (0, 0)
  in
  let sends, timeouts =
    match t.ctrl with
    | Some c ->
        let s = Core.Ctrl.stats c in
        (s.Core.Ctrl.sends, s.Core.Ctrl.timeouts)
    | None -> (0, 0)
  in
  let useful = if sends = 0 then 1.0 else 1.0 -. (float_of_int timeouts /. float_of_int sends) in
  List.map
    (fun (name, v) -> (name, float_of_int v))
    [ ("sim.events", Net.events_processed t.net);
      ("netsim.hops", hops t);
      ("iface.drops", iface_drops t);
      ("core.segments", segments);
      ("core.fingerprints", of_fatih Core.Fatih.fingerprints_observed);
      ("core.words_exchanged", of_fatih Core.Fatih.words_exchanged);
      ("core.rounds_degraded", degraded);
      ("core.rounds_excused", excused);
      ("core.reroutes", List.length (reroute_times t));
      ("chi.rounds", of_chi (fun c -> List.length (Core.Chi.reports c)));
      ( "chi.losses",
        of_chi (fun c ->
            List.fold_left
              (fun acc (r : Core.Chi.report) -> acc + List.length r.Core.Chi.losses)
              0 (Core.Chi.reports c)) );
      ("ctrl.sends", sends);
      ( "probe.journal_records",
        match t.probe with
        | Some p -> Telemetry.Journal.total (Netsim.Probe.journal p)
        | None -> 0 );
      ("verdicts", List.length (verdicts t)) ]
  @ [ ("ctrl.useful_ratio", useful) ]

(* The segments the response engine excised by the end of the run. *)
let forbidden t =
  match t.deployed with
  | Fatih_d f -> Core.Response.suspected (Core.Fatih.response f)
  | No_detector | Pi2_d _ | Chi_d _ -> []
