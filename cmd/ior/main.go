// Command ior runs the IOR benchmark clone against a simulated machine,
// mirroring the Table I invocations.
//
//	ior -n 25600 -a POSIX -F -C -e -machine dardel -nodes 200
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"picmcio/internal/cluster"
	"picmcio/internal/ior"
	"picmcio/internal/mpisim"
	"picmcio/internal/posix"
	"picmcio/internal/sim"
	"picmcio/internal/units"
)

func main() {
	tasks := flag.Int("n", 128, "task count (-N)")
	api := flag.String("a", "POSIX", "API")
	fpp := flag.Bool("F", false, "file per process")
	reorder := flag.Bool("C", false, "reorder tasks for readback")
	fsync := flag.Bool("e", false, "fsync on close")
	read := flag.Bool("r", false, "perform the read phase")
	transfer := flag.String("t", "1m", "transfer size")
	block := flag.String("b", "16m", "block size per task")
	machine := flag.String("machine", "dardel", "machine model")
	nodes := flag.Int("nodes", 1, "node allocation")
	flag.Parse()

	var m cluster.Machine
	switch strings.ToLower(*machine) {
	case "discoverer":
		m = cluster.Discoverer()
	case "dardel":
		m = cluster.Dardel()
	case "vega":
		m = cluster.Vega()
	default:
		fatal(fmt.Errorf("unknown machine %q", *machine))
	}
	tSize, err := units.ParseBytes(*transfer)
	if err != nil {
		fatal(err)
	}
	bSize, err := units.ParseBytes(*block)
	if err != nil {
		fatal(err)
	}
	cfg := ior.Config{
		NumTasks: *tasks, API: ior.API(strings.ToUpper(*api)),
		FilePerProc: *fpp, ReorderTasks: *reorder, Fsync: *fsync,
		TransferSize: tSize, BlockSize: bSize, ReadBack: *read,
		TestDir: "/ior",
	}
	k := sim.NewKernel()
	sys, err := m.Build(k, *nodes, 1)
	if err != nil {
		fatal(err)
	}
	ranksPerNode := (*tasks + *nodes - 1) / *nodes
	w := mpisim.NewWorld(k, *tasks, mpisim.AlphaBeta(m.NetAlpha, m.NetBeta))
	res, err := ior.Run(cfg, w, func(r *mpisim.Rank) *posix.Env {
		node := r.ID / ranksPerNode
		if node >= len(sys.Clients) {
			node = len(sys.Clients) - 1
		}
		return &posix.Env{FS: sys.FS, Client: sys.Clients[node], Rank: r.ID}
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("command:   %s\n", cfg.CommandLine())
	fmt.Printf("machine:   %s (%d nodes)\n", m.Name, *nodes)
	fmt.Printf("write:     %s in %s -> %s\n", units.Bytes(res.WriteBytes),
		units.Seconds(res.WriteSeconds), units.Throughput(res.WriteBandwidth))
	if cfg.ReadBack {
		fmt.Printf("read:      %s in %s -> %s\n", units.Bytes(res.ReadBytes),
			units.Seconds(res.ReadSeconds), units.Throughput(res.ReadBandwidth))
	}
	fmt.Printf("files:     %d\n", res.FilesCreated)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ior:", err)
	os.Exit(1)
}
