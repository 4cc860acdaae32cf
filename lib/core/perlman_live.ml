type t = {
  net : Netsim.Net.t;
  src : int;
  dst : int;
  flows : int list;              (* one flow id per disjoint path *)
  path_list : int list list;
  mutable next_msg : int;
  mutable delivered_ids : (int, unit) Hashtbl.t;
  mutable copies : int;
}

let create ~net ~src ~dst ~f =
  if f < 0 then invalid_arg "Perlman_live.create: f must be non-negative";
  let g = Netsim.Net.graph net in
  let disjoint = Topology.Disjoint.max_disjoint_paths g ~src ~dst in
  if List.length disjoint < f + 1 then
    invalid_arg
      (Printf.sprintf "Perlman_live.create: only %d disjoint paths, need %d"
         (List.length disjoint) (f + 1));
  let chosen = List.filteri (fun i _ -> i <= f) disjoint in
  let sim = Netsim.Net.sim net in
  let flows =
    List.map
      (fun path ->
        let flow = Netsim.Sim.fresh_id sim in
        Netsim.Net.pin_flow_path net ~flow ~path;
        flow)
      chosen
  in
  let t =
    { net; src; dst; flows; path_list = chosen; next_msg = 0;
      delivered_ids = Hashtbl.create 64; copies = 0 }
  in
  Netsim.Net.attach_app net ~node:dst (fun pkt ->
      if List.mem pkt.Netsim.Packet.flow t.flows then begin
        t.copies <- t.copies + 1;
        (* The message id rides in the payload, identical across copies. *)
        Hashtbl.replace t.delivered_ids (Int64.to_int (Netsim.Packet.payload pkt)) ()
      end);
  t

let paths t = t.path_list

let send t ~size =
  let sim = Netsim.Net.sim t.net in
  let msg = t.next_msg in
  t.next_msg <- msg + 1;
  List.iter
    (fun flow ->
      let pkt =
        Netsim.Packet.make ~sim ~src:t.src ~dst:t.dst ~flow ~size Netsim.Packet.Udp
      in
      Netsim.Packet.set_payload pkt (Int64.of_int msg);
      Netsim.Net.originate t.net pkt)
    t.flows

let sent t = t.next_msg
let delivered t = Hashtbl.length t.delivered_ids
let copies_received t = t.copies
