type action = Pass | Drop | Modify

type adversary = {
  faulty : Topology.Graph.node list;
  traffic_action : router:Topology.Graph.node -> fp:int64 -> action;
  misreport :
    router:Topology.Graph.node -> pos:int -> truth:Summary.t array -> Summary.t;
  blocks_exchange : Topology.Graph.node -> bool;
}

let truthful ~router:_ ~pos ~truth = truth.(pos)

let passive faulty =
  { faulty; traffic_action = (fun ~router:_ ~fp:_ -> Pass); misreport = truthful;
    blocks_exchange = (fun _ -> false) }

let fraction_action ~seed ~fraction act faulty =
  (* Deterministic per (router, fp): hash-based coin so repeated
     observations agree. *)
  let key = Crypto_sim.Siphash.key_of_ints (Int64.of_int seed) 0x5eedL in
  fun ~router ~fp ->
    if not (List.mem router faulty) then Pass
    else begin
      let h = Crypto_sim.Siphash.hash_int64s key [ Int64.of_int router; fp ] in
      let u =
        Int64.to_float (Int64.shift_right_logical h 11) /. 9.007199254740992e15
      in
      if u < fraction then act else Pass
    end

let dropper ?(fraction = 1.0) ?(seed = 1) faulty =
  { (passive faulty) with traffic_action = fraction_action ~seed ~fraction Drop faulty }

let modifier faulty =
  { (passive faulty) with
    traffic_action = fraction_action ~seed:1 ~fraction:1.0 Modify faulty }

let hider adv =
  let misreport ~router ~pos ~truth =
    if List.mem router adv.faulty && pos > 0 then truth.(pos - 1) else truth.(pos)
  in
  { adv with misreport }

type observation = {
  round : int;
  truth : (Topology.Graph.node list * Summary.t array) list;
  dropped_by : (Topology.Graph.node * int) list;
}

let modified_fp fp = Int64.logxor fp 0x4d4f444946494544L (* "MODIFIED" *)

let observe ~rt ~segments ~adversary ?(packets_per_path = 20) ~round () =
  let faulty_tbl = Hashtbl.create 8 in
  List.iter (fun r -> Hashtbl.replace faulty_tbl r ()) adversary.faulty;
  let is_faulty r = Hashtbl.mem faulty_tbl r in
  (* Index the monitored segments by their chains for window matching.
     This table and [dropped] are unseeded: the result lists them in
     iteration order, which must not depend on OCAMLRUNPARAM=R. *)
  let seg_tbl = Hashtbl.create ~random:false (List.length segments * 2) in
  List.iter
    (fun seg ->
      if not (Hashtbl.mem seg_tbl seg) then
        Hashtbl.add seg_tbl seg
          (Array.init (List.length seg) (fun _ -> Summary.create Summary.Content)))
    segments;
  let sizes = List.sort_uniq compare (List.map List.length segments) in
  let dropped = Hashtbl.create ~random:false 8 in
  let bump r =
    Hashtbl.replace dropped r (1 + Option.value ~default:0 (Hashtbl.find_opt dropped r))
  in
  let fp_counter = ref (Int64.of_int (round * 1_000_003)) in
  let fresh_fp () =
    fp_counter := Int64.add !fp_counter 1L;
    !fp_counter
  in
  let time = float_of_int round in
  let size = 1000 in
  List.iter
    (fun path ->
      let nodes = Array.of_list path in
      let len = Array.length nodes in
      if len >= 2 then begin
        let initial = List.init packets_per_path (fun _ -> fresh_fp ()) in
        (* forwarded.(i): the fingerprints router nodes.(i) passed along
           the path (for the sink: what it received). *)
        let forwarded = Array.make len [] in
        forwarded.(0) <- initial;
        for i = 1 to len - 1 do
          let arriving = forwarded.(i - 1) in
          if i = len - 1 then forwarded.(i) <- arriving (* sink consumes *)
          else begin
            let r = nodes.(i) in
            forwarded.(i) <-
              List.filter_map
                (fun fp ->
                  if not (is_faulty r) then Some fp
                  else begin
                    match adversary.traffic_action ~router:r ~fp with
                    | Pass -> Some fp
                    | Drop ->
                        bump r;
                        None
                    | Modify ->
                        bump r;
                        Some (modified_fp fp)
                  end)
                arriving
          end
        done;
        (* Accumulate into every monitored segment occurring on this path. *)
        List.iter
          (fun x ->
            if x <= len then
              for o = 0 to len - x do
                let window = Array.to_list (Array.sub nodes o x) in
                match Hashtbl.find_opt seg_tbl window with
                | None -> ()
                | Some summaries ->
                    for t = 0 to x - 1 do
                      (* The closing terminal records what it received
                         from the segment, as [Seg_index] does live. *)
                      let from = if t = x - 1 && t > 0 then o + t - 1 else o + t in
                      List.iter
                        (fun fp -> Summary.observe summaries.(t) ~fp ~size ~time)
                        forwarded.(from)
                    done
              done)
          sizes
      end)
    (Topology.Routing.all_routed_paths rt);
  { round;
    truth = Hashtbl.fold (fun seg summaries acc -> (seg, summaries) :: acc) seg_tbl [];
    dropped_by = Hashtbl.fold (fun r n acc -> (r, n) :: acc) dropped [] }

let adjacent_fault_bound ~rt ~faulty =
  let is_faulty r = List.mem r faulty in
  let run_of_path path =
    let best = ref 0 and cur = ref 0 in
    List.iter
      (fun r ->
        if is_faulty r then begin
          incr cur;
          if !cur > !best then best := !cur
        end
        else cur := 0)
      path;
    !best
  in
  List.fold_left
    (fun acc p -> max acc (run_of_path p))
    0
    (Topology.Routing.all_routed_paths rt)

let correct_routers g ~faulty =
  List.filter (fun r -> not (List.mem r faulty))
    (List.init (Topology.Graph.size g) Fun.id)
