(* Identity and access management — another of the paper's motivating
   domains ("authorization and access control").  Permissions propagate
   through group membership (transitive) and resource containment:
   a user can access a resource if some group they transitively belong
   to has a grant on the resource or on one of its ancestors.

   This example also demonstrates the schema layer (paper, Section 8):
   every User must have a name, and group names are unique.

   Run with:  dune exec examples/access_control.exe *)

module Engine = Cypher_engine.Engine
module Graph = Cypher_graph.Graph
module Table = Cypher_table.Table
module Schema = Cypher_schema.Schema

let setup =
  "CREATE \
   (alice:User {name: 'alice'}), (bob:User {name: 'bob'}), \
   (carol:User {name: 'carol'}), \
   (eng:Group {name: 'engineering'}), (db:Group {name: 'database-team'}), \
   (ops:Group {name: 'operations'}), \
   (root:Folder {name: '/'}), (src:Folder {name: '/src'}), \
   (secrets:Folder {name: '/secrets'}), (plans:Doc {name: '/src/plans.md'}), \
   (alice)-[:MEMBER_OF]->(db), (db)-[:MEMBER_OF]->(eng), \
   (bob)-[:MEMBER_OF]->(eng), (carol)-[:MEMBER_OF]->(ops), \
   (src)-[:CHILD_OF]->(root), (secrets)-[:CHILD_OF]->(root), \
   (plans)-[:CHILD_OF]->(src), \
   (eng)-[:GRANTED {level: 'read'}]->(src), \
   (ops)-[:GRANTED {level: 'read'}]->(secrets), \
   (db)-[:GRANTED {level: 'write'}]->(plans)"

let schema =
  let add ddl s =
    match Schema.add_ddl ddl s with Ok s -> s | Error e -> failwith e
  in
  Schema.empty
  |> add "CREATE CONSTRAINT ON (u:User) ASSERT exists(u.name)"
  |> add "CREATE CONSTRAINT ON (g:Group) ASSERT g.name IS UNIQUE"

let () =
  let { Engine.graph = g; _ } = Engine.run_exn Graph.empty setup in
  assert (Schema.conforms schema g);
  Printf.printf "ACL graph: %d nodes, %d relationships (schema ok)\n\n"
    (Graph.node_count g) (Graph.rel_count g);

  (* who can access what, and through which chain? *)
  let access =
    Engine.run g
      "MATCH (u:User)-[:MEMBER_OF*0..]->(grp)-[grant:GRANTED]->(res) \
       MATCH (target)-[:CHILD_OF*0..]->(res) \
       RETURN u.name AS user, target.name AS resource, grant.level AS level \
       ORDER BY user, resource"
  in
  Format.printf "Effective permissions:@.%a@.@." Table.pp access;

  (* the classic audit question: who can reach the secrets folder? *)
  let audit =
    Engine.run g
      "MATCH (u:User)-[:MEMBER_OF*0..]->()-[:GRANTED]->(res) \
       MATCH (t {name: '/secrets'})-[:CHILD_OF*0..]->(res) \
       RETURN collect(DISTINCT u.name) AS can_access_secrets"
  in
  Format.printf "Audit:@.%a@.@." Table.pp audit;

  (* the schema layer rejects a duplicate group *)
  (match
     Schema.guarded_query ~schema g "CREATE (:Group {name: 'engineering'})"
   with
  | Ok _ -> print_endline "BUG: duplicate group accepted"
  | Error e -> Printf.printf "Duplicate group rejected as expected:\n  %s\n"
      (Engine.error_message e));

  (* and an anonymous user *)
  match Schema.guarded_query ~schema g "CREATE (:User)" with
  | Ok _ -> print_endline "BUG: anonymous user accepted"
  | Error e -> Printf.printf "Anonymous user rejected as expected:\n  %s\n"
      (Engine.error_message e)
