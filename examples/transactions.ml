(* Sessions and transactions over the persistent store.

   The store is purely functional, so a transaction is just a snapshot
   and rollback is free; the schema layer (paper, Section 8) validates
   at commit, allowing temporarily-violating intermediate states.

   Run with:  dune exec examples/transactions.exe *)

module Session = Cypher_session.Session
module Schema = Cypher_schema.Schema
module Graph = Cypher_graph.Graph
module Table = Cypher_table.Table

let show sess q =
  match Session.run sess q with
  | Ok t -> Format.printf "%s@.%a@.@." q Table.pp t
  | Error e -> Printf.printf "%s\n  -> %s\n\n" q
      (Cypher_engine.Engine.error_message e)

let () =
  (* every Account must carry a balance, and ids are unique *)
  let schema =
    List.fold_left
      (fun s ddl ->
        match Schema.add_ddl ddl s with Ok s -> s | Error e -> failwith e)
      Schema.empty
      [
        "CREATE CONSTRAINT ON (a:Account) ASSERT exists(a.balance)";
        "CREATE CONSTRAINT ON (a:Account) ASSERT a.id IS UNIQUE";
      ]
  in
  let sess = Session.create ~schema Graph.empty in
  show sess
    "CREATE (:Account {id: 'alice', balance: 100}), \
            (:Account {id: 'bob', balance: 20})";

  (* a transfer is a transaction: the intermediate state (money deducted
     but not yet credited) never escapes *)
  Printf.printf "-- begin transfer --\n";
  Session.begin_tx sess;
  show sess "MATCH (a:Account {id: 'alice'}) SET a.balance = a.balance - 30";
  show sess "MATCH (b:Account {id: 'bob'}) SET b.balance = b.balance + 30";
  (match Session.commit sess with
  | Ok () -> Printf.printf "committed\n\n"
  | Error e -> Printf.printf "commit failed: %s\n\n"
      (Cypher_engine.Engine.error_message e));
  show sess "MATCH (a:Account) RETURN a.id AS id, a.balance AS balance ORDER BY id";

  (* a failed business rule: roll the whole thing back *)
  Printf.printf "-- begin doomed transaction --\n";
  Session.begin_tx sess;
  show sess "MATCH (a:Account {id: 'bob'}) SET a.balance = a.balance - 200";
  let overdrawn =
    match Session.run sess "MATCH (a:Account) WHERE a.balance < 0 RETURN count(*) AS c" with
    | Ok t -> Table.row_count t > 0
    | Error _ -> false
  in
  if overdrawn then begin
    (match Session.rollback sess with
    | Ok () -> Printf.printf "overdraft detected: rolled back\n\n"
    | Error e -> Printf.printf "rollback failed: %s\n"
        (Cypher_engine.Engine.error_message e))
  end;
  show sess "MATCH (a:Account) RETURN a.id AS id, a.balance AS balance ORDER BY id";

  (* the schema rejects violating statements outside transactions *)
  show sess "CREATE (:Account {id: 'alice', balance: 5})";
  show sess "CREATE (:Account {id: 'carol'})"
