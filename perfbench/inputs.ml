(* Seeded inputs.  Every workload draws from [Util.Prng] streams derived
   from the --seed argument only, so the same seed gives byte-identical
   instance texts, request streams and churn events.  The program under
   test only ever sees the generated inputs. *)

module Task = Core.Task
module Path = Core.Path
module W = Gen.Workloads

(* Instance [i] of a pool gets its own stream, so a pool's prefix does
   not depend on how long the pool is.  [salt] names the pool; streams of
   different (seed, salt, i) never coincide for i below a million. *)
let stream ~seed ~salt i = Util.Prng.create ((((seed * 65_537) + salt) * 1_000_003) + i)

let profile_path prng ~edges ~cap i =
  match i mod 3 with
  | 0 -> Gen.Profiles.staircase ~edges ~steps:3 ~base:(cap / 4)
  | 1 -> Gen.Profiles.valley ~edges ~high:cap ~low:(cap / 4)
  | _ ->
      Gen.Profiles.random_walk ~prng ~edges ~start:cap ~max_step:(cap / 8)
        ~min_cap:(cap / 4)

(* A fixed ladder of sizes [lo .. hi] visited in a scrambled order (the
   stride is coprime to the ladder length), so every seed sees the same
   size mix and only the draws inside an instance change. *)
let ladder ~lo ~hi i = lo + (i * 37 mod (hi - lo + 1))

(* solve-medium: mixed demand ratios over (0, 1] on 32 edges with spans of
   at most 8 edges.  About a quarter of the tasks are medium, and the
   Elevator DP on them does nearly all of the work. *)
let medium_instance ~seed i =
  let prng = stream ~seed ~salt:1 i in
  let path = profile_path prng ~edges:32 ~cap:32 i in
  let n = ladder ~lo:20 ~hi:110 i in
  (path, W.mixed_tasks ~prng ~path ~n ~max_span:8 ())

let text (path, tasks) = Sap_io.Instance_io.instance_to_string path tasks

(* serve-mix instances, all on 16 edges. *)
let light_instance ~seed ~salt i =
  let prng = stream ~seed ~salt i in
  let path = profile_path prng ~edges:16 ~cap:32 i in
  (path, W.mixed_tasks ~prng ~path ~n:(ladder ~lo:8 ~hi:24 i) ~max_span:6 ())

(* Medium-only tasks: every one of them goes through Almost_uniform and
   the Elevator. *)
let medium_rich_instance ~seed ~salt i =
  let prng = stream ~seed ~salt i in
  let path = profile_path prng ~edges:16 ~cap:32 i in
  let n = ladder ~lo:10 ~hi:12 i in
  (path, W.ratio_tasks ~prng ~path ~n ~lo:0.25 ~hi:0.5 ~max_span:3 ())

let round_instance ~seed ~salt i =
  let prng = stream ~seed ~salt i in
  let path = profile_path prng ~edges:12 ~cap:32 i in
  (path, W.mixed_tasks ~prng ~path ~n:(ladder ~lo:8 ~hi:20 i) ~max_span:5 ())

(* session-churn: a path of eleven capacity levels (8 .. 8192), four edges
   each.  Tasks stay inside one level's segment, so each sits in exactly
   one Strip-Pack band and a delta dirties exactly one band; demands are
   at most a quarter of the bottleneck (small tasks). *)
let churn_levels = Array.init 11 (fun k -> 8 lsl k)

let churn_path () =
  Path.create
    (Array.concat
       (List.map (fun c -> Array.make 4 c) (Array.to_list churn_levels)))

let churn_task prng path ~id =
  let level = Util.Prng.int prng (Array.length churn_levels) in
  let first_edge = (4 * level) + Util.Prng.int prng 4 in
  let last_edge = first_edge + Util.Prng.int prng (4 - (first_edge mod 4)) in
  let b = Path.bottleneck path ~first:first_edge ~last:last_edge in
  let demand = 1 + Util.Prng.int prng (b / 4) in
  let weight = 1.0 +. Util.Prng.float prng 99.0 in
  Task.make ~id ~first_edge ~last_edge ~demand ~weight

type churn_event = Add of Task.t | Remove of int | Resize of int * int

(* An endless, seed-determined event stream for one session that keeps
   the live task count near [target]: adds dominate below it, removes
   above it. *)
type churn = {
  c_prng : Util.Prng.t;
  c_path : Path.t;
  c_live : (int, Task.t) Hashtbl.t;
  mutable c_next_id : int;
  c_target : int;
}

let churn_base ~seed ~session ~target =
  let prng = stream ~seed ~salt:(10 + session) 0 in
  let path = churn_path () in
  let base = List.init target (fun id -> churn_task prng path ~id) in
  let live = Hashtbl.create (2 * target) in
  List.iter (fun (j : Task.t) -> Hashtbl.replace live j.Task.id j) base;
  ({ c_prng = prng; c_path = path; c_live = live; c_next_id = target; c_target = target },
   base)

let churn_live c =
  List.sort Task.compare (Hashtbl.fold (fun _ j acc -> j :: acc) c.c_live [])

let next_event c =
  let pick () =
    let ids = Array.of_list (List.map (fun (j : Task.t) -> j.Task.id) (churn_live c)) in
    ids.(Util.Prng.int c.c_prng (Array.length ids))
  in
  let roll = Util.Prng.int c.c_prng 10 in
  let add_share = if Hashtbl.length c.c_live < c.c_target then 6 else 3 in
  if roll < add_share || Hashtbl.length c.c_live < 2 then begin
    let id = c.c_next_id in
    c.c_next_id <- id + 1;
    let j = churn_task c.c_prng c.c_path ~id in
    Hashtbl.replace c.c_live id j;
    Add j
  end
  else if roll < 8 then begin
    let id = pick () in
    Hashtbl.remove c.c_live id;
    Remove id
  end
  else begin
    let id = pick () in
    let j = Hashtbl.find c.c_live id in
    let b = Path.bottleneck c.c_path ~first:j.Task.first_edge ~last:j.Task.last_edge in
    let demand = 1 + Util.Prng.int c.c_prng (b / 4) in
    Hashtbl.replace c.c_live id
      (Task.make ~id ~first_edge:j.Task.first_edge ~last_edge:j.Task.last_edge
         ~demand ~weight:j.Task.weight);
    Resize (id, demand)
  end
