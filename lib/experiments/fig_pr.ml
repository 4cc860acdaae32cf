type series = {
  k : int;
  max_pr : float;
  mean_pr : float;
  median_pr : float;
}

let topology_of = function
  | `Sprintlink -> Topology.Generate.sprintlink_like ()
  | `Ebone -> Topology.Generate.ebone_like ()

let name_of = function `Sprintlink -> "Sprintlink-like (315/972)" | `Ebone -> "EBONE-like (87/161)"

let sweep_rt ~protocol ~rt ~ks () =
  List.map
    (fun k ->
      let counts =
        match protocol with
        | `Pi2 -> Topology.Segments.pi2_pr_counts rt ~k
        | `Pik2 -> Topology.Segments.pik2_pr_counts rt ~k
      in
      let max_pr, mean_pr, median_pr = Topology.Segments.pr_stats counts in
      { k; max_pr; mean_pr; median_pr })
    ks

let sweep ~protocol ~topology ?(ks = [ 1; 2; 3; 4; 5; 6; 7; 8 ]) () =
  sweep_rt ~protocol ~rt:(Topology.Routing.compute (topology_of topology)) ~ks ()

let figure ~title ~protocol ~topology ~rt =
  Exp.section
    (Printf.sprintf "%s - %s" title (name_of topology))
    [ Exp.table
        ~header:[ "k"; "max |Pr|"; "avg |Pr|"; "med |Pr|" ]
        (List.map
           (fun s ->
             [ Exp.int s.k; Exp.float s.max_pr; Exp.float s.mean_pr;
               Exp.float s.median_pr ])
           (sweep_rt ~protocol ~rt ~ks:[ 1; 2; 3; 4; 5; 6; 7; 8 ] ())) ]

let eval () =
  (* One routing computation per topology, shared by both protocols. *)
  let sprintlink = Topology.Routing.compute (topology_of `Sprintlink) in
  let ebone = Topology.Routing.compute (topology_of `Ebone) in
  { Exp.id = "pr";
    sections =
      [ figure ~title:"Figure 5.2: Protocol Pi2, segments monitored per router"
          ~protocol:`Pi2 ~topology:`Sprintlink ~rt:sprintlink;
        figure ~title:"Figure 5.2 (EBONE): Protocol Pi2" ~protocol:`Pi2
          ~topology:`Ebone ~rt:ebone;
        figure ~title:"Figure 5.4: Protocol Pik+2, segments monitored per router"
          ~protocol:`Pik2 ~topology:`Sprintlink ~rt:sprintlink;
        figure ~title:"Figure 5.4 (EBONE): Protocol Pik+2" ~protocol:`Pik2
          ~topology:`Ebone ~rt:ebone ] }
