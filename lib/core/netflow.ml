type t = {
  recv : (int * int * int, int) Hashtbl.t;      (* (router, from, dst) *)
  sent : (int * int * int, int) Hashtbl.t;      (* (router, to, dst) *)
  originated : (int * int, int) Hashtbl.t;      (* (router, dst) *)
  consumed : (int, int) Hashtbl.t;
  transit_in : (int, int) Hashtbl.t;
  transit_out : (int, int) Hashtbl.t;
}

let get tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k)
let bump tbl k = Hashtbl.replace tbl k (get tbl k + 1)

let attach ~net () =
  let t =
    { recv = Hashtbl.create 256; sent = Hashtbl.create 256;
      originated = Hashtbl.create 64; consumed = Hashtbl.create 64;
      transit_in = Hashtbl.create 64; transit_out = Hashtbl.create 64 }
  in
  Netsim.Net.subscribe_iface net
    ~kinds:Netsim.Iface.(kinds [ Delivered; Transmit_start ])
    (fun ev ->
      let pkt = ev.Netsim.Net.pkt in
      match ev.Netsim.Net.kind with
      | Netsim.Iface.Delivered ->
          let v = ev.Netsim.Net.next and u = ev.Netsim.Net.router in
          let dst = pkt.Netsim.Packet.dst in
          bump t.recv (v, u, dst);
          if dst <> v then bump t.transit_in v
      | Netsim.Iface.Transmit_start ->
          let u = ev.Netsim.Net.router and v = ev.Netsim.Net.next in
          let dst = pkt.Netsim.Packet.dst in
          bump t.sent (u, v, dst);
          if pkt.Netsim.Packet.src = u then bump t.originated (u, dst)
          else bump t.transit_out u
      | _ -> ());
  Netsim.Net.subscribe_router net ~kinds:Netsim.Router.(kinds [ Delivered_local ])
    (fun ev -> bump t.consumed ev.Netsim.Net.router);
  t

let received t ~router ~from_ ~dst = get t.recv (router, from_, dst)
let sent t ~router ~to_ ~dst = get t.sent (router, to_, dst)
let originated t ~router ~dst = get t.originated (router, dst)
let consumed t ~router = get t.consumed router

let conservation_deficit t ~router = get t.transit_in router - get t.transit_out router
