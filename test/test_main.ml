let () =
  Alcotest.run "cornflakes"
    [
      ("sim", Test_sim.suite);
      ("stats", Test_stats.suite);
      ("memmodel", Test_memmodel.suite);
      ("mem", Test_mem.suite);
      ("schema", Test_schema.suite);
      ("format", Test_format.suite);
      ("cursor", Test_cursor.suite);
      ("net", Test_net.suite);
      ("baselines", Test_baselines.suite);
      ("cornflakes", Test_cornflakes.suite);
      ("kvstore", Test_kvstore.suite);
      ("workload", Test_workload.suite);
      ("apps", Test_apps.suite);
      ("redis", Test_redis.suite);
      ("tcp", Test_tcp.suite);
      ("codegen", Test_codegen.suite);
      ("specialized", Test_specialized.suite);
      ("golden", Test_golden.suite);
      ("fuzz", Test_fuzz.suite);
      ("reader", Test_reader.suite);
      ("extensions", Test_extensions.suite);
      ("segment", Test_segment.suite);
      ("replication", Test_replication.suite);
      ("loadgen", Test_loadgen.suite);
      ("sanitizer", Test_sanitizer.suite);
      ("faults", Test_faults.suite);
      ("par", Test_par.suite);
      ("cluster", Test_cluster.suite);
      ("analysis", Test_analysis.suite);
      ("rpc", Test_rpc.suite);
    ]
