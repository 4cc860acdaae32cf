type suspicion = {
  segment : Topology.Graph.node list;
  round : int;
  by : Topology.Graph.node;
}

let pp_suspicion s =
  Printf.sprintf "(⟨%s⟩, round %d) by %d"
    (String.concat "," (List.map string_of_int s.segment))
    s.round s.by

let precision suspicions =
  List.fold_left (fun acc s -> max acc (List.length s.segment)) 0 suspicions

let accurate ~faulty ~a suspicions =
  let check s =
    if List.length s.segment > a then
      Error (Printf.sprintf "suspicion too long: %s" (pp_suspicion s))
    else if not (List.exists faulty s.segment) then
      Error (Printf.sprintf "suspicion of only-correct routers: %s" (pp_suspicion s))
    else Ok ()
  in
  List.fold_left
    (fun acc s -> match acc with Error _ -> acc | Ok () -> check s)
    (Ok ()) suspicions

let fault_cluster g ~faulty r =
  if not (faulty r) then []
  else begin
    (* Unseeded: the cluster is listed in iteration order. *)
    let seen = Hashtbl.create ~random:false 8 in
    let rec visit v =
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.replace seen v ();
        List.iter (fun w -> if faulty w then visit w) (Topology.Graph.out_neighbors g v)
      end
    in
    visit r;
    Hashtbl.fold (fun v () acc -> v :: acc) seen []
  end

let complete ~graph ~faulty ~traffic_faulty ~correct_routers suspicions =
  let covered r c =
    let cluster = fault_cluster graph ~faulty r in
    List.exists
      (fun s -> s.by = c && List.exists (fun v -> List.mem v cluster) s.segment)
      suspicions
  in
  List.fold_left
    (fun acc r ->
      match acc with
      | Error _ -> acc
      | Ok () ->
          List.fold_left
            (fun acc c ->
              match acc with
              | Error _ -> acc
              | Ok () ->
                  if covered r c then Ok ()
                  else
                    Error
                      (Printf.sprintf
                         "traffic-faulty router %d not covered at correct router %d" r c))
            (Ok ()) correct_routers)
    (Ok ()) traffic_faulty
