type pop =
  | Seattle
  | Sunnyvale
  | Los_angeles
  | Denver
  | Kansas_city
  | Houston
  | Indianapolis
  | Atlanta
  | Chicago
  | Washington_dc
  | New_york

let pops =
  [| Seattle; Sunnyvale; Los_angeles; Denver; Kansas_city; Houston; Indianapolis;
     Atlanta; Chicago; Washington_dc; New_york |]

let id = function
  | Seattle -> 0
  | Sunnyvale -> 1
  | Los_angeles -> 2
  | Denver -> 3
  | Kansas_city -> 4
  | Houston -> 5
  | Indianapolis -> 6
  | Atlanta -> 7
  | Chicago -> 8
  | Washington_dc -> 9
  | New_york -> 10

let name n =
  match pops.(n) with
  | Seattle -> "Sea"
  | Sunnyvale -> "Sun"
  | Los_angeles -> "Los"
  | Denver -> "Den"
  | Kansas_city -> "Kan"
  | Houston -> "Hou"
  | Indianapolis -> "Ind"
  | Atlanta -> "Atl"
  | Chicago -> "Chi"
  | Washington_dc -> "Was"
  | New_york -> "New"

(* (a, b, one-way delay in ms).  Routing cost = delay, the usual
   latency-proportional OSPF metric; it makes the 25 ms Kansas City path
   the default and the 28 ms southern path the detour. *)
let duplex_links =
  [ (Seattle, Sunnyvale, 2.0);
    (Seattle, Denver, 5.0);
    (Sunnyvale, Denver, 4.0);
    (Sunnyvale, Los_angeles, 3.0);
    (Los_angeles, Houston, 8.0);
    (Denver, Kansas_city, 5.0);
    (Kansas_city, Houston, 5.0);
    (Kansas_city, Indianapolis, 5.0);
    (Houston, Atlanta, 7.0);
    (Indianapolis, Atlanta, 6.0);
    (Indianapolis, Chicago, 3.0);
    (Atlanta, Washington_dc, 5.0);
    (Chicago, New_york, 8.0);
    (New_york, Washington_dc, 5.0) ]

let graph () =
  let bw = 1.25e6 in
  let g = Graph.create ~n:(Array.length pops) in
  List.iter
    (fun (a, b, ms) ->
      Graph.add_duplex g ~cost:(int_of_float ms) ~bw ~delay:(ms /. 1000.0) (id a) (id b))
    duplex_links;
  g

let primary_ny_sun =
  [ id New_york; id Chicago; id Indianapolis; id Kansas_city; id Denver; id Sunnyvale ]

let detour_ny_sun =
  [ id New_york; id Washington_dc; id Atlanta; id Houston; id Los_angeles; id Sunnyvale ]
