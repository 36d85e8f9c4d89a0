package main

// golden holds each workload's fingerprint at the default seed. A rep
// at that seed whose fingerprint differs counts as failed. After a
// change that is meant to alter a run, copy the new fingerprint from the
// "fingerprint ... want ..." failure message.
var golden = map[string]string{
	"closed-credit": "T=96 total=131008 useful=131008 mincredit=1 completion=d67bb6581b8f1ccd trace=88eee87a6a2beaad" +
		" | T=104 total=131008 useful=131008 mincredit=1 completion=621740031d3c8211 trace=16a0d4424922bf3b" +
		" | T=108 total=131008 useful=131008 mincredit=1 completion=9fa77ac0d15e93a6 trace=a40f15ae9c9716eb" +
		" | T=98 total=131008 useful=131008 mincredit=1 completion=78e9d81da8f1ffb5 trace=30e9f62beb177b8d" +
		" | T=110 total=131008 useful=131008 mincredit=1 completion=ce54d872c42b7e8f trace=5dae679b0d7dbac9" +
		" | T=106 total=131008 useful=131008 mincredit=1 completion=82f6d9bdc3988e4a trace=7f7e957842cc33ed" +
		" | T=102 total=131008 useful=131008 mincredit=1 completion=1bb8703637a7ed22 trace=3fed57a3c96da957" +
		" | T=110 total=131008 useful=131008 mincredit=1 completion=89514072d32edf97 trace=334ec9be03d7a38b",
	"closed-pipeline": "T=524 total=4193792 useful=4193792 mincredit=1 completion=7d72932d48b02129 trace=604cd32a22feb34d",
	"open-flash": "T=808 total=1600000 useful=1600000 mincredit=3 completion=4e81209b4430f9e9 trace=acc7aa467f7c26a7" +
		" open=drained arrived=50000 completed=50000 peak=2638",
	"async-bt": "T=596 deliveries=523776 completion=6ba7dba38573eca5 trace=f208a8b35036aec5" +
		" | T=538 deliveries=523776 completion=19d56e894035c3e5 trace=21772bac12b7ae2d",
}
