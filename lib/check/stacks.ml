open Sim
module R = Rex_core

type kind = Smr | Cbase | Early | Eve

let all = [ Smr; Cbase; Early; Eve ]

let name = function
  | Smr -> "smr"
  | Cbase -> "cbase"
  | Early -> "early"
  | Eve -> "eve"

let of_string s = List.find_opt (fun k -> name k = s) all

let create kind net rpc cfg ~node ~paxos_store ?miss_rate ~conflict factory =
  match kind with
  | Smr -> Smr.create net rpc cfg ~node ~paxos_store factory
  | Cbase | Early ->
    let mode = if kind = Cbase then Sched.Exec.Cbase else Sched.Exec.Early in
    Sched.Server.create net rpc cfg ~node ~paxos_store ~mode ~conflict factory
  | Eve -> Eve.create net rpc cfg ~node ~paxos_store ?miss_rate ~conflict factory

let replicas = [ 0; 1; 2 ]
let client_node = 3

type deployed = {
  eng : Engine.t;
  net : Net.t;
  rpc : Rpc.t;
  servers : Smr.t array;
  remake : int -> Smr.t;
}

let live d =
  Array.to_list d.servers
  |> List.filter (fun s -> Engine.node_alive d.eng (Smr.node s))

let leader d = List.find_opt Smr.is_primary (live d)

let deploy ?(cores_per_node = 8) ?miss_rate ~seed ~conflict kind cfg factory =
  if cfg.R.Config.replicas <> replicas then
    invalid_arg "Stacks.deploy: the config's replicas must be [0; 1; 2]";
  let eng = Engine.create ~seed ~cores_per_node ~num_nodes:4 () in
  let net = Net.create eng in
  let rpc = Rpc.create net in
  let stores = Array.init 3 (fun _ -> Paxos.Store.create ()) in
  let remake i =
    create kind net rpc cfg ~node:i ~paxos_store:stores.(i) ?miss_rate
      ~conflict factory
  in
  let d = { eng; net; rpc; servers = Array.init 3 remake; remake } in
  Array.iter Smr.start d.servers;
  Engine.run ~until:1.0 eng;
  if leader d = None then Engine.run ~until:3.0 eng;
  d

let upgrade_node d i =
  Engine.crash_node d.eng i;
  Engine.restart_node d.eng i;
  let s = d.remake i in
  Smr.replay s;
  Smr.start s;
  d.servers.(i) <- s;
  s
