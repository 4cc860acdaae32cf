(* Figures 6.11-6.16: Protocol χ with RED queues (§6.5.3).

   Fig 6.11 no attack; 6.12 drop the selected flows when the average
   queue exceeds 45 kB; 6.13 when it exceeds 54 kB; 6.14 drop 10% of the
   selected flows above 45 kB; 6.15 drop 5%; 6.16 SYN targeting. *)

let no_attack () =
  Scenario.red_section ~title:"Figure 6.11: no attack (RED)"
    (Scenario.run_red ~attack:(fun _ -> None) ())

let avg_attack ~title ~avg () =
  Scenario.red_section ~title
    (Scenario.run_red
       ~attack:(fun victims ->
         Some
           (Core.Adversary.on_flows victims (Core.Adversary.drop_when_red_avg_above avg)))
       ())

let fraction_attack ?duration ~title ~fraction ~avg () =
  Scenario.red_section ~title
    (Scenario.run_red ?duration
       ~attack:(fun victims ->
         Some
           (Core.Adversary.on_flows victims
              (Core.Adversary.drop_fraction_when_red_avg_above ~seed:5 ~fraction ~avg ())))
       ())

let syn_attack () =
  Scenario.red_section
    ~title:"Figure 6.16: attack 5 - drop the victim's SYN packets (RED)"
    (Scenario.run_red ~victim_connections:true
       ~attack:(fun _ -> Some Core.Adversary.drop_syn)
       ())

let eval () =
  { Exp.id = "red";
    sections =
      [ no_attack ();
        avg_attack
          ~title:"Figure 6.12: attack 1 - drop the selected flows when avg queue > 45000 B"
          ~avg:45000.0 ();
        avg_attack
          ~title:"Figure 6.13: attack 2 - drop the selected flows when avg queue > 54000 B"
          ~avg:54000.0 ();
        fraction_attack
          ~title:"Figure 6.14: attack 3 - drop 10% of the selected flows when avg > 45000 B"
          ~fraction:0.10 ~avg:45000.0 ();
        (* The 5% drip needs a longer horizon before its per-flow excess
           clears the Bonferroni-corrected significance bar (see
           EXPERIMENTS.md). *)
        fraction_attack ~duration:400.0
          ~title:"Figure 6.15: attack 4 - drop 5% of the selected flows when avg > 45000 B"
          ~fraction:0.05 ~avg:45000.0 ();
        syn_attack () ] }
