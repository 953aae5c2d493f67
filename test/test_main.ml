let () =
  Alcotest.run "dw-delta"
    [
      ("util", Test_util.suite);
      ("relation", Test_relation.suite);
      ("storage", Test_storage.suite);
      ("txn", Test_txn.suite);
      ("wal_format", Test_wal_format.suite);
      ("sql", Test_sql.suite);
      ("engine", Test_engine.suite);
      ("snapshot", Test_snapshot.suite);
      ("core", Test_core.suite);
      ("transport", Test_transport.suite);
      ("warehouse", Test_warehouse.suite);
      ("cots", Test_cots.suite);
      ("extensions", Test_extensions.suite);
      ("etl", Test_etl.suite);
      ("bootstrap", Test_bootstrap.suite);
      ("failure", Test_failure.suite);
      ("batching", Test_batching.suite);
      ("crash", Test_crash.suite);
      ("mvcc", Test_mvcc.suite);
      ("parallel", Test_parallel.suite);
      ("partition", Test_partition.suite);
      ("planner", Test_planner.suite);
      ("properties", Test_properties.suite);
      ("scheduler", Test_scheduler.suite);
      ("write_path", Test_write_path.suite);
      ("value_path", Test_value_path.suite);
    ]
