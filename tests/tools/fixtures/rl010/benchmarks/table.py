TRACED = (("lib.shapes", "bench_only", "bench.span"),)
