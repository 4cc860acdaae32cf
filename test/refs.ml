(* References the searches and the segment walk are checked against,
   shared by the topology and protocol suites.  They share no code with
   what they check. *)

open Topology

(* Floyd–Warshall: fw.(v).(d) is the least cost from v to d, [max_int]
   when d is unreachable. *)
let floyd_warshall g =
  let n = Graph.size g in
  let fw = Array.make_matrix n n max_int in
  for v = 0 to n - 1 do
    fw.(v).(v) <- 0
  done;
  List.iter (fun (l : Graph.link) -> fw.(l.Graph.src).(l.Graph.dst) <- l.Graph.cost) (Graph.links g);
  for m = 0 to n - 1 do
    for a = 0 to n - 1 do
      for b = 0 to n - 1 do
        if fw.(a).(m) <> max_int && fw.(m).(b) <> max_int && fw.(a).(m) + fw.(m).(b) < fw.(a).(b)
        then fw.(a).(b) <- fw.(a).(m) + fw.(m).(b)
      done
    done
  done;
  fw

(* The list-windows oracle for both families: the windows each family
   keeps of every routed path, in [Routing.all_routed_paths] order
   (src-major, then dst), widths ascending, offsets ascending, first
   occurrences kept.  The next-hop walk in [Segments] must list exactly
   these, order included: the deployments number their segments in it. *)
let ref_family rt ~widths =
  let seen = Hashtbl.create 4096 in
  List.concat_map
    (fun p ->
      List.concat_map (Segments.windows p) (widths (List.length p))
      |> List.filter (fun s ->
             (not (Hashtbl.mem seen s)) && (Hashtbl.add seen s (); true)))
    (Routing.all_routed_paths rt)

let ref_pi2_family rt ~k =
  ref_family rt ~widths:(fun len -> if len < 3 then [] else [ min len (k + 2) ])

let ref_pik2_family rt ~k = ref_family rt ~widths:(fun _ -> List.init k (fun i -> i + 3))


let families_match rt k =
  Segments.pi2_family rt ~k = ref_pi2_family rt ~k
  && Segments.pik2_family rt ~k = ref_pik2_family rt ~k
