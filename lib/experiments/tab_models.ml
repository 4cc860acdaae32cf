(* §6.1.2: why traffic modeling is not enough.

   Runs the bottleneck with n TCP flows, measures the actual loss rate
   and queue-occupancy distribution, and compares them with the two
   analytic alternatives the dissertation evaluates: the square-root TCP
   law's implied loss and Appenzeller's normal-occupancy overflow
   probability.  The table reproduces the section's conclusion: the
   models get the order of magnitude at best, nowhere near the per-drop
   precision detection needs. *)

open Netsim
module G = Topology.Graph

type measured = {
  flows : int;
  loss_rate : float;
  throughput_per_flow : float;  (* bytes/s *)
  rtt : float;
  queue_sigma : float;          (* bytes *)
}

let measure ~flows =
  let g = G.create ~n:(flows + 2) in
  let bottleneck = flows and sink = flows + 1 in
  for src = 0 to flows - 1 do
    G.add_duplex g ~bw:12.5e6 ~delay:0.001 src bottleneck
  done;
  G.add_duplex g ~bw:1.25e6 ~delay:0.020 bottleneck sink;
  let net = Net.create ~seed:3 ~jitter_bound:0.0 g in
  let rt = Topology.Routing.compute g in
  Net.use_routing net rt;
  let conns = List.init flows (fun src -> Tcp.connect net ~src ~dst:sink ()) in
  let sent = ref 0 and dropped = ref 0 in
  Net.subscribe_link net
    ~kinds:Iface.(kinds [ Enqueued; Drop_congestion ])
    ~src:bottleneck ~dst:sink (fun ev ->
      match ev.Net.kind with
      | Iface.Enqueued -> incr sent
      | Iface.Drop_congestion ->
          incr sent;
          incr dropped
      | _ -> ());
  (* Sample the queue occupancy for the sigma comparison. *)
  let iface = Option.get (Net.iface net ~src:bottleneck ~dst:sink) in
  let occ = ref [] in
  let sim = Net.sim net in
  let rec sample () =
    occ := float_of_int (Iface.occupancy iface) :: !occ;
    Sim.schedule sim ~delay:0.02 sample
  in
  Sim.schedule sim ~delay:5.0 sample;
  let duration = 60.0 in
  Net.run ~until:duration net;
  let goodput =
    List.fold_left (fun acc c -> acc +. Tcp.goodput c ~at:duration) 0.0 conns
    /. float_of_int flows
  in
  { flows;
    loss_rate = float_of_int !dropped /. float_of_int (max 1 !sent);
    throughput_per_flow = goodput;
    rtt = 0.042 +. 0.025 (* propagation + typical queueing at this buffer *);
    queue_sigma = Mrstats.Descriptive.stddev (Array.of_list !occ) }

let eval () =
  let rows =
    List.map
      (fun flows ->
        let m = measure ~flows in
        let implied =
          Core.Congestion_models.implied_loss ~rtt:m.rtt
            ~throughput:m.throughput_per_flow ~b:1 ~mss:960
        in
        let sigma_model =
          Core.Congestion_models.buffer_sigma ~tp:0.042 ~capacity:1.25e6 ~buffer:64000.0
            ~flows
        in
        let p_overflow =
          Core.Congestion_models.overflow_probability ~buffer:64000.0 ~sigma:sigma_model
        in
        [ Exp.int flows;
          Exp.float ~decimals:4 m.loss_rate;
          Exp.float ~decimals:4 implied;
          Exp.float ~decimals:0 m.queue_sigma;
          Exp.float ~decimals:0 sigma_model;
          Exp.floatf "%.2e" p_overflow ])
      [ 2; 4; 8; 16 ]
  in
  { Exp.id = "models";
    sections =
      [ Exp.section "Section 6.1.2: analytic congestion models vs measurement"
          [ Exp.table
              ~header:
                [ "flows"; "loss meas."; "loss sqrt-law"; "sigma meas.";
                  "sigma model"; "P(ovfl)" ]
              rows;
            Exp.Note
              ( "conclusion",
                "both models disagree with measurement by large factors that vary with n — \
                 usable for provisioning, not for attributing individual drops (the paper's \
                 motivation for measurement-based validation)" ) ] ] }
