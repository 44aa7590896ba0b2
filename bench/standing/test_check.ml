(* Unit checks of the bench kit: a wrong answer counts as a failure, and
   quantiles are exact order statistics of the recorded samples. *)

module Value = Cypher_values.Value

let () =
  let t = Check.tally () in
  let point = Check.point ~name:"Ada1" ~city:(Some "Oslo") in
  Check.judge t ~what:"right" (Ok [ [ ("city", Value.String "Oslo"); ("name", Value.String "Ada1") ] ]) point;
  assert (t.Check.attempted = 1 && t.Check.failed = 0);
  Check.judge t ~what:"wrong city" (Ok [ [ ("name", Value.String "Ada1"); ("city", Value.String "Rome") ] ]) point;
  Check.judge t ~what:"wrong count" (Ok [ [ ("n", Value.Int 4) ] ]) (Check.count (Some 5));
  Check.judge t ~what:"error" (Error "runtime error: boom") (Check.count None);
  assert (t.Check.attempted = 4 && t.Check.failed = 3);
  let s = Kit.samples () in
  for v = 1000 downto 1 do Kit.add s v done;
  let sorted = Kit.sorted s in
  assert (Kit.quantile sorted 0.5 = Some 500);
  assert (Kit.quantile sorted 0.99 = Some 990);
  (* at n = 1000 only five samples lie beyond p99.5 *)
  assert (Kit.quantile sorted 0.995 = None);
  print_endline "standing kit checks: ok"
