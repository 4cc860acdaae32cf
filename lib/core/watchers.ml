module Key = struct
  (* (x, y, d): link x->y, destination d. *)
  type t = int * int * int
end

type counters = {
  claimed_sent : (Key.t, int) Hashtbl.t;   (* as claimed by the link source *)
  claimed_recv : (Key.t, int) Hashtbl.t;   (* as claimed by the link sink *)
  originated : (int * int, int) Hashtbl.t; (* (source, destination) *)
  silent : (int, unit) Hashtbl.t;          (* routers that never accuse *)
  links : (int * int) list;
  n : int;
}

let get tbl key = Option.value ~default:0 (Hashtbl.find_opt tbl key)
let bump tbl key v = Hashtbl.replace tbl key (get tbl key + v)

let collect ~rt ~drops ~lies () =
  let packets_per_path = 20 in
  let g = Topology.Routing.graph rt in
  (* true_sent (x, y, d): packets x actually transmitted on link x->y
     toward destination d.  received_for (x, y, d): packets x received
     that it should have forwarded to y toward d — the pre-drop volume an
     inflating router claims to have sent.  Sources and sinks are correct
     for their own traffic (§2.1.4), so drops only apply on transit. *)
  let true_sent = Hashtbl.create 256 in
  let received_for = Hashtbl.create 256 in
  let originated = Hashtbl.create 64 in
  List.iter
    (fun path ->
      let nodes = Array.of_list path in
      let len = Array.length nodes in
      if len >= 2 then begin
        let d = nodes.(len - 1) in
        bump originated (nodes.(0), d) packets_per_path;
        let alive = ref packets_per_path in
        for i = 0 to len - 2 do
          let x = nodes.(i) and y = nodes.(i + 1) in
          bump received_for (x, y, d) !alive;
          if i > 0 && drops x ~next:y then alive := 0;
          bump true_sent (x, y, d) !alive
        done
      end)
    (Topology.Routing.all_routed_paths rt);
  let links =
    List.map (fun (l : Topology.Graph.link) -> (l.Topology.Graph.src, l.Topology.Graph.dst))
      (Topology.Graph.links g)
  in
  let n = Topology.Graph.size g in
  let claimed_sent = Hashtbl.create 256 and claimed_recv = Hashtbl.create 256 in
  let silent = Hashtbl.create 8 in
  for r = 0 to n - 1 do
    if lies r <> `Honest then Hashtbl.replace silent r ()
  done;
  List.iter
    (fun (x, y) ->
      for d = 0 to n - 1 do
        let truth = get true_sent (x, y, d) in
        if truth > 0 || get received_for (x, y, d) > 0 then begin
          let sent_claim =
            match lies x with
            | `Inflate_sent target when target = y -> get received_for (x, y, d)
            | `Honest | `Silent | `Inflate_sent _ | `Match_upstream _ -> truth
          in
          let recv_claim =
            match lies y with
            | `Match_upstream target when target = x -> sent_claim
            | `Honest | `Silent | `Inflate_sent _ | `Match_upstream _ -> truth
          in
          if sent_claim > 0 then Hashtbl.replace claimed_sent (x, y, d) sent_claim;
          if recv_claim > 0 then Hashtbl.replace claimed_recv (x, y, d) recv_claim
        end
      done)
    links;
  { claimed_sent; claimed_recv; originated; silent; links; n }

type detection =
  | Bad_link of Topology.Graph.node * Topology.Graph.node
  | Bad_router of Topology.Graph.node

let detect ?(improved = false) ?(threshold = 0) c =
  let out = ref [] in
  (* Validation phase: the two claims about every link must agree. *)
  List.iter
    (fun (x, y) ->
      let mismatch = ref false in
      for d = 0 to c.n - 1 do
        if get c.claimed_sent (x, y, d) <> get c.claimed_recv (x, y, d) then
          mismatch := true
      done;
      if !mismatch then begin
        let x_accuses = not (Hashtbl.mem c.silent x) in
        let y_accuses = not (Hashtbl.mem c.silent y) in
        if x_accuses || y_accuses then out := Bad_link (x, y) :: !out
        else if improved then
          (* The fix: bystanders expected an accusation from x or y and
             timed out waiting for it. *)
          out := Bad_link (x, y) :: !out
      end)
    c.links;
  (* Conservation-of-flow test per router, from the flooded claims. *)
  for y = 0 to c.n - 1 do
    let bad = ref false in
    for d = 0 to c.n - 1 do
      if d <> y then begin
        let inbound =
          List.fold_left
            (fun acc (a, b) -> if b = y then acc + get c.claimed_recv (a, y, d) else acc)
            0 c.links
          + get c.originated (y, d)
        in
        let outbound =
          List.fold_left
            (fun acc (a, b) -> if a = y then acc + get c.claimed_sent (y, b, d) else acc)
            0 c.links
        in
        if abs (inbound - outbound) > threshold then bad := true
      end
    done;
    if !bad then out := Bad_router y :: !out
  done;
  List.sort_uniq compare !out

let counters_per_router g =
  let n = Topology.Graph.size g in
  Array.map (fun deg -> 7 * deg * n) (Topology.Graph.degrees g)
