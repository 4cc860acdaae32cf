(* Figure 6.3: the queue prediction error q_act - q_pred is normally
   distributed (the NS-simulation validation of §6.4.1).

   We run the Fig 6.4 bottleneck under TCP congestion with per-packet
   processing jitter, calibrate χ for many rounds, and show the sampled
   error distribution with its moments against a fitted normal. *)

open Netsim
module G = Topology.Graph

let collect () =
  let g = G.create ~n:5 in
  G.add_duplex g ~bw:12.5e6 ~delay:0.001 0 3;
  G.add_duplex g ~bw:12.5e6 ~delay:0.001 1 3;
  G.add_duplex g ~bw:12.5e6 ~delay:0.001 2 3;
  G.add_duplex g ~bw:1.25e6 ~delay:0.005 3 4;
  let net = Net.create ~seed:7 ~jitter_bound:2e-3 g in
  let rt = Topology.Routing.compute g in
  Net.use_routing net rt;
  (* Calibrate for the whole run: every round is a learning round. *)
  let config = { Core.Chi.default_config with Core.Chi.tau = 1.0; learning_rounds = 1000 } in
  let chi = Core.Chi.deploy ~net ~rt ~router:3 ~next:4 ~config () in
  (* A heterogeneous mix (three MSSes plus two UDP sizes) so prediction
     errors take many values rather than multiples of one packet size. *)
  List.iter
    (fun (src, mss) -> ignore (Tcp.connect net ~src ~dst:4 ~mss ()))
    [ (0, 1460); (1, 960); (2, 536) ];
  ignore (Flow.poisson net ~src:0 ~dst:4 ~rate_pps:60.0 ~size:300 ~start:0.0 ~stop:60.0);
  ignore (Flow.poisson net ~src:1 ~dst:4 ~rate_pps:40.0 ~size:700 ~start:0.0 ~stop:60.0);
  Net.run ~until:60.0 net;
  Core.Chi.error_samples chi

let eval () =
  let samples = Array.of_list (collect ()) in
  let mu = Mrstats.Descriptive.mean samples in
  let sigma = Mrstats.Descriptive.stddev samples in
  let h =
    Mrstats.Histogram.create ~lo:(mu -. (4.0 *. sigma)) ~hi:(mu +. (4.0 *. sigma)) ~bins:17
  in
  Array.iter (Mrstats.Histogram.add h) samples;
  { Exp.id = "qerror";
    sections =
      [ Exp.section
          "Figure 6.3: distribution of the queue prediction error (NS-style run)"
          [ Exp.Note ("samples", string_of_int (Array.length samples));
            Exp.Note ("mean (B)", Printf.sprintf "%.1f" mu);
            Exp.Note ("std dev (B)", Printf.sprintf "%.1f" sigma);
            Exp.Note
              ("skewness", Printf.sprintf "%.3f" (Mrstats.Descriptive.skewness samples));
            Exp.Note
              ( "excess kurtosis",
                Printf.sprintf "%.3f" (Mrstats.Descriptive.kurtosis_excess samples) );
            Exp.Raw (Mrstats.Histogram.render_with_normal ~width:40 h ~mu ~sigma) ] ]
  }
