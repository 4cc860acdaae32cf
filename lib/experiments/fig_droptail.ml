(* Figures 6.5-6.9: Protocol χ on the Emulab-style drop-tail bottleneck.

   Fig 6.5 no attack; Fig 6.6 attack 1 (drop 20% of the selected flows);
   Fig 6.7 attack 2 (drop the selected flows when the queue is 90% full);
   Fig 6.8 attack 3 (95% full); Fig 6.9 attack 4 (drop the victim's SYN
   packets). *)

let no_attack () =
  Scenario.droptail_section ~title:"Figure 6.5: no attack (drop-tail)"
    (Scenario.run_droptail ~attack:(fun _ -> None) ())

let attack1 () =
  Scenario.droptail_section
    ~title:"Figure 6.6: attack 1 - drop 20% of the selected flows"
    (Scenario.run_droptail
       ~attack:(fun victims ->
         Some (Core.Adversary.on_flows victims (Core.Adversary.drop_fraction ~seed:5 0.2)))
       ())

let attack2 () =
  Scenario.droptail_section
    ~title:"Figure 6.7: attack 2 - drop the selected flows when the queue is 90% full"
    (Scenario.run_droptail
       ~attack:(fun victims ->
         Some (Core.Adversary.on_flows victims (Core.Adversary.drop_when_queue_above 0.90)))
       ())

let attack3 () =
  Scenario.droptail_section
    ~title:"Figure 6.8: attack 3 - drop the selected flows when the queue is 95% full"
    (Scenario.run_droptail
       ~attack:(fun victims ->
         Some (Core.Adversary.on_flows victims (Core.Adversary.drop_when_queue_above 0.95)))
       ())

let attack4 () =
  Scenario.droptail_section
    ~title:"Figure 6.9: attack 4 - drop the victim's SYN packets"
    (Scenario.run_droptail ~victim_connections:true
       ~attack:(fun _ -> Some Core.Adversary.drop_syn)
       ())

let eval () =
  { Exp.id = "droptail";
    sections = [ no_attack (); attack1 (); attack2 (); attack3 (); attack4 () ] }
