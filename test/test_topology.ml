(* Tests for the topology substrate: graphs, deterministic routing,
   path-segment enumeration, policy (response) routing, generators,
   Abilene, and disjoint paths. *)

open Topology

let seg = Alcotest.(list int)

(* --- Graph --- *)

let test_graph_basics () =
  let g = Graph.create ~n:4 in
  Graph.add_duplex g 0 1;
  Graph.add_link g ~cost:3 1 2;
  Alcotest.(check int) "size" 4 (Graph.size g);
  Alcotest.(check int) "links" 3 (Graph.link_count g);
  Alcotest.(check int) "duplex" 1 (Graph.duplex_link_count g);
  Alcotest.(check (list int)) "neighbors" [ 0; 2 ] (Graph.out_neighbors g 1);
  (match Graph.link g 1 2 with
  | Some l -> Alcotest.(check int) "cost" 3 l.Graph.cost
  | None -> Alcotest.fail "link 1->2 must exist");
  Alcotest.(check bool) "no reverse" true (Graph.link g 2 1 = None)

let test_graph_replace () =
  let g = Graph.create ~n:2 in
  Graph.add_link g ~cost:1 0 1;
  Graph.add_link g ~cost:9 0 1;
  Alcotest.(check int) "still one link" 1 (Graph.link_count g);
  Alcotest.(check int) "cost replaced" 9 (Graph.link_exn g 0 1).Graph.cost

let test_graph_validation () =
  let g = Graph.create ~n:2 in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_link: self-loop")
    (fun () -> Graph.add_link g 0 0);
  Alcotest.check_raises "bad cost" (Invalid_argument "Graph.add_link: cost must be positive")
    (fun () -> Graph.add_link g ~cost:0 0 1);
  Alcotest.check_raises "range" (Invalid_argument "Graph.add_link: node 5 outside [0,2)")
    (fun () -> Graph.add_link g 5 1)

let test_graph_connectivity () =
  let g = Generate.line ~n:5 in
  Alcotest.(check bool) "line connected" true (Graph.is_connected g);
  Graph.remove_link g 2 3;
  Alcotest.(check bool) "one direction cut" false (Graph.is_connected g)

let test_graph_copy_independent () =
  let g = Generate.line ~n:3 in
  let g2 = Graph.copy g in
  Graph.remove_link g2 0 1;
  Alcotest.(check bool) "original keeps link" true (Graph.link g 0 1 <> None);
  Alcotest.(check bool) "copy lost link" true (Graph.link g2 0 1 = None)

(* --- Dijkstra / Routing --- *)

(* Row [dst] of the distances: every node's least cost to [dst]. *)
let distances_to g ~dst =
  let row = ref [||] in
  Dijkstra.iter (Graph.adjacency g) (fun d ~dist ~next:_ -> if d = dst then row := Array.copy dist);
  !row

let test_dijkstra_line () =
  let g = Generate.line ~n:5 in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3; 4 |] (distances_to g ~dst:0)

let test_dijkstra_unreachable () =
  let g = Graph.create ~n:3 in
  Graph.add_duplex g 0 1;
  Alcotest.(check int) "isolated" Dijkstra.unreachable (distances_to g ~dst:0).(2)

let test_dijkstra_respects_costs () =
  (* 0-1-2 with costs 1+1 vs direct 0-2 with cost 5. *)
  let g = Graph.create ~n:3 in
  Graph.add_duplex g ~cost:1 0 1;
  Graph.add_duplex g ~cost:1 1 2;
  Graph.add_duplex g ~cost:5 0 2;
  Alcotest.(check int) "via middle" 2 (distances_to g ~dst:0).(2)

let test_dijkstra_one_way () =
  (* One-way links 0 -> 1 -> 2: a row holds the costs to its node, not
     from it. *)
  let g = Graph.create ~n:3 in
  Graph.add_link g ~cost:2 0 1;
  Graph.add_link g ~cost:3 1 2;
  let u = Dijkstra.unreachable in
  Alcotest.(check (array int)) "to 2" [| 5; 3; 0 |] (distances_to g ~dst:2);
  Alcotest.(check (array int)) "to 0" [| 0; u; u |] (distances_to g ~dst:0)

let test_routing_path () =
  let g = Generate.line ~n:4 in
  let rt = Routing.compute g in
  (match Routing.path rt ~src:0 ~dst:3 with
  | Some p -> Alcotest.check seg "path" [ 0; 1; 2; 3 ] p
  | None -> Alcotest.fail "reachable");
  Alcotest.(check (option int)) "cost" (Some 3) (Routing.cost rt 0 3);
  Alcotest.(check bool) "self path" true (Routing.path rt ~src:2 ~dst:2 = Some [ 2 ])

let test_routing_deterministic_tiebreak () =
  (* Diamond 0-{1,2}-3 with equal costs: the lower-id neighbor wins. *)
  let g = Graph.create ~n:4 in
  Graph.add_duplex g 0 1;
  Graph.add_duplex g 0 2;
  Graph.add_duplex g 1 3;
  Graph.add_duplex g 2 3;
  let rt = Routing.compute g in
  Alcotest.(check (option int)) "next hop" (Some 1) (Routing.next_hop rt 0 ~dst:3);
  match Routing.path rt ~src:0 ~dst:3 with
  | Some p -> Alcotest.check seg "path via 1" [ 0; 1; 3 ] p
  | None -> Alcotest.fail "reachable"

let test_routing_loop_free_everywhere () =
  let g = Generate.ispish ~seed:3 ~n:60 ~duplex_links:120 ~max_degree:12 () in
  let rt = Routing.compute g in
  List.iter
    (fun p ->
      let sorted = List.sort_uniq compare p in
      if List.length sorted <> List.length p then Alcotest.fail "routed path revisits a node")
    (Routing.all_routed_paths rt)

let test_all_routed_paths_count () =
  let g = Generate.line ~n:4 in
  let rt = Routing.compute g in
  Alcotest.(check int) "ordered pairs" 12 (List.length (Routing.all_routed_paths rt))

let test_path_delay () =
  let g = Graph.create ~n:3 in
  Graph.add_duplex g ~delay:0.004 0 1;
  Graph.add_duplex g ~delay:0.006 1 2;
  let rt = Routing.compute g in
  Alcotest.(check (float 1e-9)) "delay sum" 0.010 (Routing.path_delay rt [ 0; 1; 2 ])

(* --- Segments --- *)

let test_windows () =
  Alcotest.(check (list (list int))) "w2" [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ] ]
    (Segments.windows [ 1; 2; 3; 4 ] 2);
  Alcotest.(check (list (list int))) "w4" [ [ 1; 2; 3; 4 ] ] (Segments.windows [ 1; 2; 3; 4 ] 4);
  Alcotest.(check (list (list int))) "too wide" [] (Segments.windows [ 1; 2 ] 3)

let test_pi2_family_line () =
  (* Line of 5, k = 1: 3-segments of routed paths = all consecutive triples
     in both directions. *)
  let rt = Routing.compute (Generate.line ~n:5) in
  let fam = Segments.pi2_family rt ~k:1 in
  Alcotest.(check int) "count" 6 (List.length fam);
  Alcotest.(check bool) "contains 0-1-2" true (List.mem [ 0; 1; 2 ] fam);
  Alcotest.(check bool) "contains 2-1-0" true (List.mem [ 2; 1; 0 ] fam)

let test_pi2_family_short_paths () =
  (* Line of 3, k = 3 (x = 5 > path length): whole 3-paths are monitored. *)
  let rt = Routing.compute (Generate.line ~n:3) in
  let fam = Segments.pi2_family rt ~k:3 in
  Alcotest.(check int) "both directions" 2 (List.length fam);
  Alcotest.(check bool) "whole path" true (List.mem [ 0; 1; 2 ] fam)

let test_pik2_family_line () =
  (* Line of 5, k = 2: x in {3,4}. 3-segments: 6; 4-segments: 4. *)
  let rt = Routing.compute (Generate.line ~n:5) in
  let fam = Segments.pik2_family rt ~k:2 in
  Alcotest.(check int) "count" 10 (List.length fam)

let test_pi2_pr_membership () =
  let rt = Routing.compute (Generate.line ~n:5) in
  let counts = Segments.pi2_pr_counts rt ~k:1 in
  (* Router 2 is inside 0-1-2,1-2-3,2-3-4 and their reverses: 6 segments;
     routers 1 and 3 inside four each; routers 0 and 4 only inside
     0-1-2 / 2-1-0 and 2-3-4 / 4-3-2. *)
  Alcotest.(check (array int)) "per router" [| 2; 4; 6; 4; 2 |] counts

let test_pik2_pr_ends_only () =
  let rt = Routing.compute (Generate.line ~n:5) in
  let counts = Segments.pik2_pr_counts rt ~k:1 in
  (* k = 1: only 3-segments.  Router 2 is an end of 2-3-4, 4-3-2, 2-1-0
     and 0-1-2; routers 1 and 3 of 1-2-3 and 3-2-1; router 0 of 0-1-2
     and 2-1-0, router 4 of 2-3-4 and 4-3-2.  A middle router is not
     counted: two ends per segment. *)
  Alcotest.(check (array int)) "per router" [| 2; 2; 4; 2; 2 |] counts;
  Alcotest.(check int) "two ends per segment" (2 * List.length (Segments.pik2_family rt ~k:1))
    (Array.fold_left ( + ) 0 counts)

let test_pr_stats () =
  let rt = Routing.compute (Generate.line ~n:5) in
  let mx, mean, med = Segments.pr_stats (Segments.pi2_pr_counts rt ~k:1) in
  Alcotest.(check (float 1e-9)) "max" 6.0 mx;
  Alcotest.(check bool) "mean <= max" true (mean <= mx);
  Alcotest.(check bool) "median <= max" true (med <= mx)

let test_pik2_smaller_than_pi2 () =
  (* The dissertation's headline overhead comparison: per-router state for
     Πk+2 is far below Π2 on ISP-like graphs. *)
  let g = Generate.ebone_like () in
  let rt = Routing.compute g in
  let _, mean_pi2, _ = Segments.pr_stats (Segments.pi2_pr_counts rt ~k:2) in
  let _, mean_pik2, _ = Segments.pr_stats (Segments.pik2_pr_counts rt ~k:2) in
  Alcotest.(check bool)
    (Printf.sprintf "pi2 %.1f > pik2 %.1f" mean_pi2 mean_pik2)
    true (mean_pi2 > mean_pik2)

(* --- Policy --- *)

let test_policy_no_forbidden_matches_routing () =
  let g = Generate.grid ~rows:3 ~cols:3 in
  let rt = Routing.compute g in
  let pol = Policy.compute g ~forbidden:[] in
  for s = 0 to 8 do
    for d = 0 to 8 do
      if s <> d then begin
        let a = Routing.path rt ~src:s ~dst:d and b = Policy.path pol ~src:s ~dst:d in
        match (a, b) with
        | Some pa, Some pb ->
            Alcotest.(check int)
              (Printf.sprintf "same cost %d->%d" s d)
              (List.length pa) (List.length pb)
        | _ -> Alcotest.fail "both should be reachable"
      end
    done
  done

let test_policy_link_removal () =
  let g = Generate.ring ~n:5 in
  let pol = Policy.compute g ~forbidden:[ [ 0; 1 ] ] in
  Alcotest.(check bool) "the cut link is forbidden" true (Policy.is_forbidden_path pol [ 4; 0; 1 ]);
  Alcotest.(check bool) "its reverse is not" false (Policy.is_forbidden_path pol [ 2; 1; 0 ]);
  match Policy.path pol ~src:0 ~dst:1 with
  | Some p ->
      Alcotest.check seg "goes the long way" [ 0; 4; 3; 2; 1 ] p
  | None -> Alcotest.fail "still reachable"

let test_policy_forbidden_transition () =
  (* Grid: ban the transition 0->1->2 along the top row; 0->2 must detour
     but 1->2 alone stays direct. *)
  let g = Generate.grid ~rows:2 ~cols:3 in
  (* ids: 0 1 2 / 3 4 5 *)
  let pol = Policy.compute g ~forbidden:[ [ 0; 1; 2 ] ] in
  (match Policy.path pol ~src:0 ~dst:2 with
  | Some p ->
      Alcotest.(check bool) "avoids banned window" false (Policy.is_forbidden_path pol p);
      Alcotest.(check bool) "longer than direct" true (List.length p > 3)
  | None -> Alcotest.fail "reachable");
  match Policy.path pol ~src:1 ~dst:2 with
  | Some p -> Alcotest.check seg "direct hop unaffected" [ 1; 2 ] p
  | None -> Alcotest.fail "reachable"

let test_policy_long_segment_conservative () =
  let g = Generate.grid ~rows:3 ~cols:3 in
  (* A 4-segment bans its two interior transitions. *)
  let pol = Policy.compute g ~forbidden:[ [ 0; 1; 2; 5 ] ] in
  Alcotest.(check int) "two banned transitions" 2
    (List.length (Policy.forbidden_transitions pol))

let test_policy_unreachable_when_cut () =
  let g = Generate.line ~n:3 in
  let pol = Policy.compute g ~forbidden:[ [ 0; 1 ]; [ 1; 0 ] ] in
  Alcotest.(check bool) "cut" true (Policy.path pol ~src:0 ~dst:2 = None)

let test_policy_rejects_bogus_segment () =
  let g = Generate.line ~n:4 in
  Alcotest.(check bool) "non-adjacent rejected" true
    (try
       ignore (Policy.compute g ~forbidden:[ [ 0; 2 ] ]);
       false
     with Invalid_argument _ -> true)

let test_policy_rejects_bad_prev () =
  (* The ban set is keyed by (prev * n + cur) * n + next: a previous hop
     outside [-1, n) must be refused, not folded into some other key. *)
  let g = Generate.grid ~rows:2 ~cols:3 in
  let pol = Policy.compute g ~forbidden:[ [ 0; 1; 2 ] ] in
  let bad = Invalid_argument "Policy.next_hop: bad node" in
  List.iter
    (fun prev ->
      Alcotest.check_raises (Printf.sprintf "next_hop_id prev %d" prev) bad (fun () ->
          ignore (Policy.next_hop_id pol ~prev ~cur:1 ~dst:2)))
    [ -2; 6; 7; max_int ];
  List.iter
    (fun prev ->
      Alcotest.check_raises (Printf.sprintf "next_hop prev Some %d" prev) bad (fun () ->
          ignore (Policy.next_hop pol ~prev:(Some prev) ~cur:1 ~dst:2)))
    [ -1; 6 ];
  Alcotest.(check int) "prev -1 is locally originated" 2
    (Policy.next_hop_id pol ~prev:(-1) ~cur:1 ~dst:2);
  Alcotest.(check bool) "banned 0 -> 1 -> 2 is avoided" true
    (Policy.next_hop_id pol ~prev:0 ~cur:1 ~dst:2 <> 2)

let test_policy_forbidden_transitions_sorted () =
  let g = Generate.grid ~rows:3 ~cols:3 in
  let a = [ [ 5; 4; 3 ]; [ 0; 1; 2; 5 ]; [ 7; 4; 1 ] ] in
  let expected = [ (0, 1, 2); (1, 2, 5); (5, 4, 3); (7, 4, 1) ] in
  let triple = Alcotest.(list (triple int int int)) in
  Alcotest.check triple "sorted" expected
    (Policy.forbidden_transitions (Policy.compute g ~forbidden:a));
  Alcotest.check triple "independent of insertion order" expected
    (Policy.forbidden_transitions (Policy.compute g ~forbidden:(List.rev a)))

let test_policy_paths_loop_free () =
  let g = Generate.grid ~rows:3 ~cols:4 in
  let pol = Policy.compute g ~forbidden:[ [ 0; 1; 2 ]; [ 5; 6 ]; [ 4; 5; 9 ] ] in
  for s = 0 to 11 do
    for d = 0 to 11 do
      if s <> d then begin
        match Policy.path pol ~src:s ~dst:d with
        | None -> ()
        | Some p ->
            if List.length p > 100 then Alcotest.fail "absurdly long path";
            Alcotest.(check bool)
              (Printf.sprintf "clean %d->%d" s d)
              false (Policy.is_forbidden_path pol p)
      end
    done
  done

(* --- Generate --- *)

let test_generate_line_ring_grid () =
  Alcotest.(check int) "line links" 8 (Graph.link_count (Generate.line ~n:5));
  Alcotest.(check int) "ring links" 10 (Graph.link_count (Generate.ring ~n:5));
  Alcotest.(check int) "grid links" 14 (Graph.link_count (Generate.grid ~rows:2 ~cols:3));
  Alcotest.(check bool) "grid connected" true (Graph.is_connected (Generate.grid ~rows:4 ~cols:4))

let check_ispish g ~n ~links ~cap =
  Alcotest.(check int) "nodes" n (Graph.size g);
  Alcotest.(check int) "duplex links" links (Graph.duplex_link_count g);
  Alcotest.(check bool) "connected" true (Graph.is_connected g);
  let degs = Graph.degrees g in
  Array.iter (fun d -> if d > cap then Alcotest.failf "degree %d over cap %d" d cap) degs

let test_generate_sprintlink_shape () =
  check_ispish (Generate.sprintlink_like ()) ~n:315 ~links:972 ~cap:45

let test_generate_ebone_shape () = check_ispish (Generate.ebone_like ()) ~n:87 ~links:161 ~cap:11

(* The Sprintlink shape and its link-state tables, pinned: the links in
   [Graph.links] order with every attribute, and every router's next
   hop toward every destination.  Fatih's and the forwarding plane's
   ISP-scale rows, and Figures 5.2/5.4, are built on these. *)
let test_sprintlink_pinned () =
  let g = Generate.sprintlink_like () in
  let b = Buffer.create 65536 in
  List.iter
    (fun (l : Graph.link) ->
      Printf.bprintf b "%d %d %d %h %h;" l.Graph.src l.Graph.dst l.Graph.cost l.Graph.bw
        l.Graph.delay)
    (Graph.links g);
  Alcotest.(check string) "links md5" "6b5a4dcad33fc317a88dd5f789a2c5cc"
    (Digest.to_hex (Digest.string (Buffer.contents b)));
  let rt = Routing.compute g in
  Buffer.clear b;
  for dst = 0 to Graph.size g - 1 do
    for v = 0 to Graph.size g - 1 do
      Printf.bprintf b "%d," (Routing.next_hop_id rt v ~dst)
    done
  done;
  Alcotest.(check string) "next-hop table md5" "1b80377327b0b54833b8705235755b60"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* The Sprintlink families, pinned beside its next hops: the segments
   of [pik2_family ~k:1] (Fatih's and Pi2_live's numbering), [~k:2] and
   [pi2_family ~k:2], in order.  The walk stops at states it has
   already walked, so a family that lost or reordered a window would
   move this digest. *)
let test_sprintlink_families_pinned () =
  let rt = Routing.compute (Generate.sprintlink_like ()) in
  let b = Buffer.create (1 lsl 20) in
  List.iter
    (fun family ->
      List.iter
        (fun seg ->
          List.iter (fun r -> Printf.bprintf b "%d," r) seg;
          Buffer.add_char b ';')
        family;
      Buffer.add_char b '|')
    [ Segments.pik2_family rt ~k:1; Segments.pik2_family rt ~k:2; Segments.pi2_family rt ~k:2 ];
  Alcotest.(check string) "families md5" "000284e54d44904f07850aa2b572b2f3"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let test_generate_deterministic () =
  let a = Generate.ispish ~seed:5 ~n:30 ~duplex_links:60 ~max_degree:10 () in
  let b = Generate.ispish ~seed:5 ~n:30 ~duplex_links:60 ~max_degree:10 () in
  Alcotest.(check (list (pair int int))) "same links"
    (List.sort compare (List.map (fun (l : Graph.link) -> (l.Graph.src, l.Graph.dst)) (Graph.links a)))
    (List.sort compare (List.map (fun (l : Graph.link) -> (l.Graph.src, l.Graph.dst)) (Graph.links b)))

let test_generate_waxman () =
  let g = Generate.waxman ~seed:3 ~n:40 () in
  Alcotest.(check int) "nodes" 40 (Graph.size g);
  Alcotest.(check bool) "connected" true (Graph.is_connected g);
  (* Beyond the spanning chain, geometric links exist. *)
  Alcotest.(check bool) "denser than a chain" true (Graph.duplex_link_count g > 39);
  (* Deterministic per seed. *)
  let h = Generate.waxman ~seed:3 ~n:40 () in
  Alcotest.(check int) "deterministic" (Graph.link_count g) (Graph.link_count h)

let test_generate_infeasible () =
  Alcotest.(check bool) "too few links rejected" true
    (try
       ignore (Generate.ispish ~n:10 ~duplex_links:5 ~max_degree:4 ());
       false
     with Invalid_argument _ -> true)

(* --- Abilene --- *)

let test_abilene_shape () =
  let g = Abilene.graph () in
  Alcotest.(check int) "pops" 11 (Graph.size g);
  Alcotest.(check int) "duplex links" 14 (Graph.duplex_link_count g);
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

let test_abilene_primary_path () =
  let rt = Routing.compute (Abilene.graph ()) in
  match Routing.path rt ~src:(Abilene.id Abilene.New_york) ~dst:(Abilene.id Abilene.Sunnyvale) with
  | Some p -> Alcotest.check seg "primary" Abilene.primary_ny_sun p
  | None -> Alcotest.fail "reachable"

let test_abilene_latencies () =
  let rt = Routing.compute (Abilene.graph ()) in
  Alcotest.(check (float 1e-9)) "primary 25ms" 0.025 (Routing.path_delay rt Abilene.primary_ny_sun);
  Alcotest.(check (float 1e-9)) "detour 28ms" 0.028 (Routing.path_delay rt Abilene.detour_ny_sun)

let test_abilene_detour_after_excision () =
  (* Excise the three suspected 3-segments around Kansas City (both
     directions): NY -> Sunnyvale must switch to the southern path. *)
  let g = Abilene.graph () in
  let kc = Abilene.id Abilene.Kansas_city in
  let den = Abilene.id Abilene.Denver
  and ind = Abilene.id Abilene.Indianapolis
  and hou = Abilene.id Abilene.Houston in
  let forbidden =
    List.concat_map
      (fun (a, b) -> [ [ a; kc; b ]; [ b; kc; a ] ])
      [ (den, ind); (den, hou); (hou, ind) ]
  in
  let pol = Policy.compute g ~forbidden in
  match Policy.path pol ~src:(Abilene.id Abilene.New_york) ~dst:(Abilene.id Abilene.Sunnyvale) with
  | Some p -> Alcotest.check seg "detour" Abilene.detour_ny_sun p
  | None -> Alcotest.fail "reachable"

let test_abilene_names () =
  Alcotest.(check string) "Kan" "Kan" (Abilene.name (Abilene.id Abilene.Kansas_city));
  Alcotest.(check string) "New" "New" (Abilene.name (Abilene.id Abilene.New_york))

(* --- Disjoint --- *)

let test_disjoint_ring () =
  let g = Generate.ring ~n:6 in
  let paths = Disjoint.max_disjoint_paths g ~src:0 ~dst:3 in
  Alcotest.(check int) "two disjoint paths" 2 (List.length paths);
  (* Intermediate nodes must not repeat across paths. *)
  let interior p = List.filter (fun v -> v <> 0 && v <> 3) p in
  let all = List.concat_map interior paths in
  Alcotest.(check int) "no shared interior" (List.length all)
    (List.length (List.sort_uniq compare all))

let test_disjoint_line () =
  let g = Generate.line ~n:4 in
  Alcotest.(check int) "line connectivity 1" 1 (Disjoint.connectivity g ~src:0 ~dst:3)

let test_disjoint_grid () =
  let g = Generate.grid ~rows:3 ~cols:3 in
  (* Corner-to-corner connectivity of a 3x3 grid is 2. *)
  Alcotest.(check int) "grid corners" 2 (Disjoint.connectivity g ~src:0 ~dst:8)

let test_disjoint_unreachable () =
  let g = Graph.create ~n:3 in
  Graph.add_duplex g 0 1;
  Alcotest.(check int) "unreachable" 0 (Disjoint.connectivity g ~src:0 ~dst:2)

let test_disjoint_paths_valid () =
  let g = Generate.grid ~rows:3 ~cols:3 in
  List.iter
    (fun p ->
      let rec adjacent = function
        | a :: (b :: _ as rest) ->
            if Graph.link g a b = None then Alcotest.fail "path uses non-link";
            adjacent rest
        | _ -> ()
      in
      adjacent p)
    (Disjoint.max_disjoint_paths g ~src:0 ~dst:8)

(* --- properties --- *)

let topo_gen =
  QCheck.make
    QCheck.Gen.(
      map2
        (fun n seed -> (6 + n, seed))
        (int_bound 20) (int_bound 1000))

let prop_routing_paths_consistent =
  (* Hop-by-hop: the path from any intermediate router to the destination
     is the corresponding suffix — the predictability property. *)
  QCheck.Test.make ~name:"suffix consistency" ~count:25 topo_gen (fun (n, seed) ->
      let g = Generate.ispish ~seed ~n ~duplex_links:(2 * n) ~max_degree:n () in
      let rt = Routing.compute g in
      List.for_all
        (fun p ->
          match p with
          | _ :: (mid :: _ as suffix) when List.length suffix >= 1 ->
              let dst = List.nth p (List.length p - 1) in
              Routing.path rt ~src:mid ~dst = Some suffix
          | _ -> true)
        (Routing.all_routed_paths rt))

let prop_segments_are_subpaths =
  QCheck.Test.make ~name:"pi2 segments lie on routed paths" ~count:15 topo_gen
    (fun (n, seed) ->
      let g = Generate.ispish ~seed ~n ~duplex_links:(2 * n) ~max_degree:n () in
      let rt = Routing.compute g in
      let fam = Segments.pi2_family rt ~k:2 in
      List.for_all
        (fun s ->
          let rec adjacent = function
            | a :: (b :: _ as rest) -> Graph.link g a b <> None && adjacent rest
            | _ -> true
          in
          List.length s >= 3 && adjacent s)
        fam)

let prop_policy_avoids_forbidden =
  QCheck.Test.make ~name:"policy paths never traverse forbidden windows" ~count:15
    topo_gen (fun (n, seed) ->
      let g = Generate.ispish ~seed ~n ~duplex_links:(2 * n) ~max_degree:n () in
      let rt = Routing.compute g in
      (* Forbid the middle 3-window of the longest routed path. *)
      let longest =
        List.fold_left
          (fun acc p -> if List.length p > List.length acc then p else acc)
          [] (Routing.all_routed_paths rt)
      in
      if List.length longest < 3 then true
      else begin
        let window = List.filteri (fun i _ -> i < 3) longest in
        let pol = Policy.compute g ~forbidden:[ window ] in
        List.for_all
          (fun (s : int) ->
            List.for_all
              (fun d ->
                if s = d then true
                else begin
                  match Policy.path pol ~src:s ~dst:d with
                  | None -> true
                  | Some p -> not (Policy.is_forbidden_path pol p)
                end)
              (List.init n Fun.id))
          (List.init n Fun.id)
      end)

(* --- differential: route computations against list-scanning oracles --- *)

(* The list-scanning policy router that the adjacency snapshot replaced,
   kept as the oracle: a backward Dijkstra over (prev, cur) states that
   rescans every link of the graph for each popped state. *)
module Ref_policy = struct
  module Tset = Hashtbl.Make (struct
    type t = int * int * int

    let equal (a, b, c) (x, y, z) = a = x && b = y && c = z
    let hash = Hashtbl.hash
  end)

  (* The oracle's own queue, (cost, insertion, state) in a set, so it
     shares no code with the heap [Policy] runs on. *)
  module Pending = Set.Make (struct
    type t = int * int * int

    let compare = compare
  end)

  type t = { work : Graph.t; banned : unit Tset.t; dist_cache : int array option array }

  let rec triples = function
    | a :: (b :: c :: _ as rest) -> (a, b, c) :: triples rest
    | _ -> []

  let compute g ~forbidden =
    let work = Graph.copy g in
    let banned = Tset.create 16 in
    List.iter
      (function
        | [ a; b ] -> Graph.remove_link work a b
        | seg -> List.iter (fun tr -> Tset.replace banned tr ()) (triples seg))
      forbidden;
    { work; banned; dist_cache = Array.make (Graph.size g) None }

  let state_distances t dst =
    match t.dist_cache.(dst) with
    | Some d -> d
    | None ->
        let n = Graph.size t.work in
        let dist = Array.make (n * n) max_int in
        let queue = ref Pending.empty and inserted = ref 0 in
        let push cost state =
          queue := Pending.add (cost, !inserted, state) !queue;
          incr inserted
        in
        List.iter
          (fun (l : Graph.link) ->
            if l.Graph.dst = dst then begin
              dist.((l.Graph.src * n) + dst) <- 0;
              push 0 ((l.Graph.src * n) + dst)
            end)
          (Graph.links t.work);
        let rec drain () =
          match Pending.min_elt_opt !queue with
          | None -> ()
          | Some ((cost, _, state) as top) ->
              queue := Pending.remove top !queue;
              if cost = dist.(state) then begin
                let v = state / n and w = state mod n in
                List.iter
                  (fun (l : Graph.link) ->
                    if l.Graph.dst = v then begin
                      let u = l.Graph.src in
                      if not (Tset.mem t.banned (u, v, w)) then begin
                        let cand = (Graph.link_exn t.work v w).Graph.cost + dist.(state) in
                        let pstate = (u * n) + v in
                        if cand < dist.(pstate) then begin
                          dist.(pstate) <- cand;
                          push cand pstate
                        end
                      end
                    end)
                  (Graph.links t.work)
              end;
              drain ()
        in
        drain ();
        t.dist_cache.(dst) <- Some dist;
        dist

  let next_hop t ~prev ~cur ~dst =
    let n = Graph.size t.work in
    if cur = dst then None
    else begin
      let dist = state_distances t dst in
      let score w =
        let allowed =
          match prev with Some p -> not (Tset.mem t.banned (p, cur, w)) | None -> true
        in
        if not allowed then None
        else begin
          let tail = if w = dst then 0 else dist.((cur * n) + w) in
          if tail = max_int then None
          else Some ((Graph.link_exn t.work cur w).Graph.cost + tail)
        end
      in
      List.fold_left
        (fun acc w ->
          match score w with
          | None -> acc
          | Some c -> ( match acc with Some (c0, _) when c0 <= c -> acc | _ -> Some (c, w)))
        None
        (Graph.out_neighbors t.work cur)
      |> Option.map snd
    end
end

(* The same differential at ISP shape: Sprintlink's skewed degrees
   (3 to 45 links per router) give CSR rows of very different lengths.
   One 3-segment of a routed path is forbidden; toward a handful of
   destinations, every policy-forwarded path from every source is
   checked against the oracle hop by hop. *)
let test_policy_sprintlink_matches_reference () =
  let g = Generate.sprintlink_like () in
  let n = Graph.size g in
  let rt = Routing.compute g in
  let a, b, c =
    match Routing.path rt ~src:0 ~dst:(n - 1) with
    | Some (a :: b :: c :: _) -> (a, b, c)
    | _ -> Alcotest.fail "no routed path of three routers"
  in
  let forbidden = [ [ a; b; c ] ] in
  let pol = Policy.compute g ~forbidden and oracle = Ref_policy.compute g ~forbidden in
  let checked = ref 0 and through_cut = ref 0 in
  List.iter
    (fun dst ->
      for src = 0 to n - 1 do
        let rec walk prev cur steps =
          let want =
            Ref_policy.next_hop oracle ~prev:(if prev < 0 then None else Some prev) ~cur ~dst
          in
          let got = Policy.next_hop_id pol ~prev ~cur ~dst in
          if got <> Option.value want ~default:(-1) then
            Alcotest.failf "toward %d at (%d, %d): policy %d, reference %s" dst prev cur got
              (match want with Some w -> string_of_int w | None -> "none");
          incr checked;
          if prev = a && cur = b then incr through_cut;
          if got >= 0 && steps < n then walk cur got (steps + 1)
        in
        walk (-1) src 0
      done)
    [ n - 1; c; 1; n / 2 ];
  Alcotest.(check bool)
    (Printf.sprintf "%d hops checked, %d at the cut" !checked !through_cut)
    true
    (!checked > 4 * n && !through_cut > 0)

(* Reference link-state next hops toward [dst]: Bellman-Ford distances
   over the link list, then the lowest-id neighbour on a shortest path. *)
let ref_next_hops g ~dst =
  let n = Graph.size g in
  let dist = Array.make n max_int in
  dist.(dst) <- 0;
  for _ = 1 to n do
    List.iter
      (fun (l : Graph.link) ->
        if dist.(l.Graph.dst) <> max_int && dist.(l.Graph.dst) + l.Graph.cost < dist.(l.Graph.src)
        then dist.(l.Graph.src) <- dist.(l.Graph.dst) + l.Graph.cost)
      (Graph.links g)
  done;
  Array.init n (fun v ->
      if v = dst || dist.(v) = max_int then -1
      else
        List.find_opt
          (fun w ->
            dist.(w) <> max_int && (Graph.link_exn g v w).Graph.cost + dist.(w) = dist.(v))
          (List.sort compare (Graph.out_neighbors g v))
        |> Option.value ~default:(-1))

(* A Waxman or grid graph, half the time with link costs drawn from 1..3
   so that cost rather than hop count decides, and 1-4 forbidden
   segments of 2-4 routers drawn as random walks. *)
let route_case =
  QCheck.make
    ~print:(fun (grid, seed) -> Printf.sprintf "%s seed %d" (if grid then "grid" else "waxman") seed)
    QCheck.Gen.(pair bool (int_bound 100_000))

let case_graph (grid, seed) =
  let rng = Random.State.make [| seed |] in
  let g =
    if grid then
      Generate.grid ~rows:(2 + Random.State.int rng 3) ~cols:(2 + Random.State.int rng 4)
    else Generate.waxman ~seed ~n:(5 + Random.State.int rng 12) ()
  in
  if Random.State.bool rng then
    List.iter
      (fun (l : Graph.link) ->
        Graph.add_link g ~cost:(1 + Random.State.int rng 3) ~bw:l.Graph.bw
          ~delay:l.Graph.delay l.Graph.src l.Graph.dst)
      (Graph.links g);
  (g, rng)

let random_segments g rng =
  let rec walk v len acc =
    if len = 0 then List.rev acc
    else
      match Graph.out_neighbors g v with
      | [] -> List.rev acc
      | ns ->
          let w = List.nth ns (Random.State.int rng (List.length ns)) in
          walk w (len - 1) (w :: acc)
  in
  List.init (1 + Random.State.int rng 4) (fun _ ->
      let v = Random.State.int rng (Graph.size g) in
      walk v (1 + Random.State.int rng 3) [ v ])
  |> List.filter (fun s -> List.length s >= 2)

let prop_policy_matches_reference =
  QCheck.Test.make ~name:"policy next hop = list-scanning reference" ~count:40 route_case
    (fun case ->
      let g, rng = case_graph case in
      let forbidden = random_segments g rng in
      let pol = Policy.compute g ~forbidden and oracle = Ref_policy.compute g ~forbidden in
      let n = Graph.size g in
      let ok = ref true in
      for dst = 0 to n - 1 do
        for cur = 0 to n - 1 do
          for p = -1 to n - 1 do
            let prev = if p < 0 then None else Some p in
            let want = Ref_policy.next_hop oracle ~prev ~cur ~dst in
            if Policy.next_hop pol ~prev ~cur ~dst <> want
               || Policy.next_hop_id pol ~prev:p ~cur ~dst <> Option.value want ~default:(-1)
            then ok := false
          done
        done
      done;
      !ok)

let prop_routing_matches_reference =
  QCheck.Test.make ~name:"routing next hop = reference dijkstra" ~count:40 route_case
    (fun case ->
      let g, _ = case_graph case in
      let rt = Routing.compute g in
      List.for_all
        (fun dst ->
          let want = ref_next_hops g ~dst in
          Array.for_all Fun.id (Array.mapi (fun v w -> Routing.next_hop_id rt v ~dst = w) want))
        (List.init (Graph.size g) Fun.id))

(* The searches against a reference that shares no code with them, on
   costs that decide (1..50 per directed link) and on graphs with some
   directed links removed, so that some routers cannot reach others:
   Sprintlink's unit costs and full connectivity exercise neither. *)
let search_case =
  QCheck.make
    ~print:(fun (grid, seed) -> Printf.sprintf "%s seed %d" (if grid then "grid" else "waxman") seed)
    QCheck.Gen.(pair bool (int_bound 1_000_000))

let search_graph ?(max_cost = 50) (grid, seed) =
  let rng = Random.State.make [| seed; 50 |] in
  let g =
    if grid then
      Generate.grid ~rows:(1 + Random.State.int rng 4) ~cols:(2 + Random.State.int rng 4)
    else Generate.waxman ~seed ~n:(2 + Random.State.int rng 14) ()
  in
  List.iter
    (fun (l : Graph.link) ->
      if Random.State.int rng 6 = 0 then Graph.remove_link g l.Graph.src l.Graph.dst
      else
        Graph.add_link g ~cost:(1 + Random.State.int rng max_cost) ~bw:l.Graph.bw
          ~delay:l.Graph.delay l.Graph.src l.Graph.dst)
    (List.sort compare (Graph.links g));
  (g, rng)

(* Each case is drawn three times: with unit costs (every search level
   is one radix-heap bucket, promoted whole), with costs 1..50, and with
   costs up to 10^4 (keys that spread over many buckets).  The routed
   path's summed cost must be the least cost too. *)
let prop_searches_match_floyd_warshall =
  QCheck.Test.make ~name:"dijkstra and routing next hops = floyd-warshall" ~count:200
    search_case (fun case ->
      List.for_all
        (fun max_cost ->
          let g, _ = search_graph ~max_cost case in
          let n = Graph.size g in
          let fw = Refs.floyd_warshall g in
          let dist = Array.make n [||] in
          Dijkstra.iter (Graph.adjacency g) (fun d ~dist:row ~next:_ -> dist.(d) <- Array.copy row);
          let rt = Routing.compute g in
          let ok = ref true in
          for dst = 0 to n - 1 do
            for v = 0 to n - 1 do
              (* The first neighbour, ascending, on a least-cost path. *)
              let want =
                if v = dst || fw.(v).(dst) = max_int then -1
                else
                  List.find
                    (fun w ->
                      fw.(w).(dst) <> max_int
                      && (Graph.link_exn g v w).Graph.cost + fw.(w).(dst) = fw.(v).(dst))
                    (Graph.out_neighbors g v)
              in
              let cost = if fw.(v).(dst) = max_int then None else Some fw.(v).(dst) in
              if dist.(dst).(v) <> fw.(v).(dst)
                 || Routing.next_hop_id rt v ~dst <> want
                 || Routing.cost rt v dst <> cost
              then ok := false
            done
          done;
          !ok)
        [ 1; 50; 10_000 ])

(* ECMP's stored rows against the candidates read off Floyd–Warshall's
   distances: every successor on a least-cost path, ascending; a flow's
   next hop is one of them, and -1 exactly when there is none. *)
let prop_ecmp_rows_match_distances =
  QCheck.Test.make ~name:"ecmp rows = candidates from distances" ~count:200 search_case
    (fun case ->
      let g, _ = search_graph case in
      let n = Graph.size g in
      let fw = Refs.floyd_warshall g in
      let e = Ecmp.compute g in
      let ok = ref true in
      for dst = 0 to n - 1 do
        for v = 0 to n - 1 do
          let want =
            if v = dst || fw.(v).(dst) = max_int then []
            else
              List.filter
                (fun w ->
                  fw.(w).(dst) <> max_int
                  && (Graph.link_exn g v w).Graph.cost + fw.(w).(dst) = fw.(v).(dst))
                (Graph.out_neighbors g v)
          in
          let hop = Ecmp.next_hop_id e v ~dst ~flow:((v * 31) + dst) in
          if Ecmp.candidates e v ~dst <> want
             || (if want = [] then hop <> -1 else not (List.mem hop want))
          then ok := false
        done
      done;
      !ok)

let prop_policy_matches_reference_on_costs =
  QCheck.Test.make ~name:"policy next hop = reference, costs 1..50 and cut links" ~count:200
    search_case (fun case ->
      let g, rng = search_graph case in
      let forbidden = random_segments g rng in
      let pol = Policy.compute g ~forbidden and oracle = Ref_policy.compute g ~forbidden in
      let n = Graph.size g in
      let ok = ref true in
      for dst = 0 to n - 1 do
        for cur = 0 to n - 1 do
          for prev = -1 to n - 1 do
            let want =
              Ref_policy.next_hop oracle ~prev:(if prev < 0 then None else Some prev) ~cur ~dst
            in
            if Policy.next_hop_id pol ~prev ~cur ~dst <> Option.value want ~default:(-1) then
              ok := false
          done
        done
      done;
      !ok)

(* Graphs of 2 to 12 routers, half the time with costs 1..3 and some
   directed links removed: the walk's window table starts at its
   smallest size there and doubles as the wider windows of k = 2..4
   fill it.  The per-router |Pr| counts must equal those taken from the
   reference families too. *)
let prop_families_match_reference =
  QCheck.Test.make ~name:"families = list-windows reference" ~count:100 route_case
    (fun (grid, seed) ->
      let rng = Random.State.make [| seed; 12 |] in
      let g =
        if grid then
          Generate.grid ~rows:(1 + Random.State.int rng 3) ~cols:(2 + Random.State.int rng 3)
        else Generate.waxman ~seed ~n:(2 + Random.State.int rng 11) ()
      in
      if Random.State.bool rng then
        List.iter
          (fun (l : Graph.link) ->
            if Random.State.int rng 8 = 0 then Graph.remove_link g l.Graph.src l.Graph.dst
            else
              Graph.add_link g ~cost:(1 + Random.State.int rng 3) ~bw:l.Graph.bw
                ~delay:l.Graph.delay l.Graph.src l.Graph.dst)
          (List.sort compare (Graph.links g));
      (* A random tree beside it: nearly every path is shorter than
         k + 2, so Pi2's whole-path windows at k = 2..4 are taken from
         sources the walk has already marked. *)
      let tree = Graph.create ~n:(2 + Random.State.int rng 11) in
      for v = 1 to Graph.size tree - 1 do
        Graph.add_duplex tree v (Random.State.int rng v)
      done;
      List.for_all
        (fun g ->
          let rt = Routing.compute g in
          List.for_all (fun k -> Refs.families_match rt k && Refs.counts_match rt k) [ 1; 2; 3; 4 ])
        [ g; tree ])

let test_families_grid8x8 () =
  let rt = Routing.compute (Generate.grid ~rows:8 ~cols:8) in
  List.iter
    (fun k ->
      Alcotest.(check (list (list int)))
        (Printf.sprintf "pi2 k = %d" k) (Refs.ref_pi2_family rt ~k) (Segments.pi2_family rt ~k);
      Alcotest.(check (list (list int)))
        (Printf.sprintf "pik2 k = %d" k) (Refs.ref_pik2_family rt ~k) (Segments.pik2_family rt ~k))
    [ 1; 2; 3 ];
  Alcotest.check_raises "pi2 k = 0"
    (Invalid_argument "Segments.pi2_family: k must be >= 1")
    (fun () -> ignore (Segments.pi2_family rt ~k:0));
  Alcotest.check_raises "pik2 k = 0"
    (Invalid_argument "Segments.pik2_family: k must be >= 1")
    (fun () -> ignore (Segments.pik2_family rt ~k:0))

let () =
  Alcotest.run "topology"
    [ ( "graph",
        [ Alcotest.test_case "basics" `Quick test_graph_basics;
          Alcotest.test_case "replace" `Quick test_graph_replace;
          Alcotest.test_case "validation" `Quick test_graph_validation;
          Alcotest.test_case "connectivity" `Quick test_graph_connectivity;
          Alcotest.test_case "copy" `Quick test_graph_copy_independent ] );
      ( "routing",
        [ Alcotest.test_case "dijkstra line" `Quick test_dijkstra_line;
          Alcotest.test_case "dijkstra unreachable" `Quick test_dijkstra_unreachable;
          Alcotest.test_case "dijkstra costs" `Quick test_dijkstra_respects_costs;
          Alcotest.test_case "dijkstra one-way links" `Quick test_dijkstra_one_way;
          Alcotest.test_case "path" `Quick test_routing_path;
          Alcotest.test_case "tie break" `Quick test_routing_deterministic_tiebreak;
          Alcotest.test_case "loop free" `Quick test_routing_loop_free_everywhere;
          Alcotest.test_case "all paths count" `Quick test_all_routed_paths_count;
          Alcotest.test_case "path delay" `Quick test_path_delay ] );
      ( "segments",
        [ Alcotest.test_case "windows" `Quick test_windows;
          Alcotest.test_case "pi2 family line" `Quick test_pi2_family_line;
          Alcotest.test_case "pi2 short paths" `Quick test_pi2_family_short_paths;
          Alcotest.test_case "pik2 family line" `Quick test_pik2_family_line;
          Alcotest.test_case "pi2 pr membership" `Quick test_pi2_pr_membership;
          Alcotest.test_case "pik2 ends only" `Quick test_pik2_pr_ends_only;
          Alcotest.test_case "pr stats" `Quick test_pr_stats;
          Alcotest.test_case "families grid8x8 = reference" `Quick test_families_grid8x8;
          Alcotest.test_case "pik2 < pi2 state" `Slow test_pik2_smaller_than_pi2 ] );
      ( "policy",
        [ Alcotest.test_case "matches routing" `Quick test_policy_no_forbidden_matches_routing;
          Alcotest.test_case "link removal" `Quick test_policy_link_removal;
          Alcotest.test_case "forbidden transition" `Quick test_policy_forbidden_transition;
          Alcotest.test_case "long segment" `Quick test_policy_long_segment_conservative;
          Alcotest.test_case "unreachable" `Quick test_policy_unreachable_when_cut;
          Alcotest.test_case "bogus segment" `Quick test_policy_rejects_bogus_segment;
          Alcotest.test_case "bad prev" `Quick test_policy_rejects_bad_prev;
          Alcotest.test_case "forbidden transitions sorted" `Quick
            test_policy_forbidden_transitions_sorted;
          Alcotest.test_case "loop free" `Quick test_policy_paths_loop_free;
          Alcotest.test_case "sprintlink = reference" `Quick
            test_policy_sprintlink_matches_reference ] );
      ( "generate",
        [ Alcotest.test_case "line ring grid" `Quick test_generate_line_ring_grid;
          Alcotest.test_case "sprintlink shape" `Slow test_generate_sprintlink_shape;
          Alcotest.test_case "ebone shape" `Quick test_generate_ebone_shape;
          Alcotest.test_case "sprintlink links and next hops pinned" `Quick
            test_sprintlink_pinned;
          Alcotest.test_case "sprintlink families pinned" `Quick
            test_sprintlink_families_pinned;
          Alcotest.test_case "deterministic" `Quick test_generate_deterministic;
          Alcotest.test_case "waxman" `Quick test_generate_waxman;
          Alcotest.test_case "infeasible" `Quick test_generate_infeasible ] );
      ( "abilene",
        [ Alcotest.test_case "shape" `Quick test_abilene_shape;
          Alcotest.test_case "primary path" `Quick test_abilene_primary_path;
          Alcotest.test_case "latencies" `Quick test_abilene_latencies;
          Alcotest.test_case "detour" `Quick test_abilene_detour_after_excision;
          Alcotest.test_case "names" `Quick test_abilene_names ] );
      ( "disjoint",
        [ Alcotest.test_case "ring" `Quick test_disjoint_ring;
          Alcotest.test_case "line" `Quick test_disjoint_line;
          Alcotest.test_case "grid" `Quick test_disjoint_grid;
          Alcotest.test_case "unreachable" `Quick test_disjoint_unreachable;
          Alcotest.test_case "valid paths" `Quick test_disjoint_paths_valid ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_routing_paths_consistent; prop_segments_are_subpaths;
            prop_policy_avoids_forbidden; prop_policy_matches_reference;
            prop_routing_matches_reference; prop_families_match_reference;
            prop_searches_match_floyd_warshall; prop_policy_matches_reference_on_costs;
            prop_ecmp_rows_match_distances ] ) ]
