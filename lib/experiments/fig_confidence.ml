(* Figure 6.2: the confidence value of the single packet loss test.

   c_single = P(X <= qlimit - qpred - ps) for the calibrated error
   X ~ N(mu, sigma): plotted against the predicted queue occupancy at the
   loss instant.  Near-full queue -> the loss is explainable as
   congestion (low confidence); any headroom -> malicious. *)

let eval () =
  let qlimit = 64000.0 and ps = 1000 in
  let mu = 0.0 and sigma = 800.0 in
  let rows =
    List.map
      (fun qpred ->
        let headroom = qlimit -. qpred -. float_of_int ps in
        let c = Mrstats.Erf.normal_cdf ~mu ~sigma headroom in
        [ Exp.float ~decimals:0 qpred; Exp.float ~decimals:0 headroom;
          Exp.float ~decimals:6 c ])
      [ 0.0; 16000.0; 32000.0; 48000.0; 56000.0; 60000.0; 61000.0; 62000.0; 62500.0;
        63000.0; 63500.0; 64000.0 ]
  in
  { Exp.id = "confidence";
    sections =
      [ Exp.section "Figure 6.2: confidence value for the single packet loss test"
          [ Exp.Raw
              (Printf.sprintf "  qlimit = %.0f B, packet = %d B, X ~ N(%.0f, %.0f^2)\n"
                 qlimit ps mu sigma);
            Exp.table ~header:[ "qpred (B)"; "headroom"; "c_single" ] rows ] ] }
