// Command lfs demonstrates Lustre striping control against the simulated
// file system, reproducing the paper's Table III command and Listing 1
// output.
//
//	lfs setstripe -c 8 -S 16M io_openPMD     # configure + create + show
//	lfs getstripe io_openPMD/dat_file.bp4/data.0
package main

import (
	"flag"
	"fmt"
	"os"

	"picmcio/internal/cluster"
	"picmcio/internal/lustre"
	"picmcio/internal/pfs"
	"picmcio/internal/posix"
	"picmcio/internal/sim"
	"picmcio/internal/units"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "setstripe":
		setstripe(os.Args[2:])
	case "getstripe":
		// getstripe needs a file to exist; this demo tool combines both
		// verbs on a fresh simulated FS, so getstripe alone re-creates
		// the default-layout file first.
		getstripe(os.Args[2:], 1, 1<<20)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  lfs setstripe -c <count> -S <size> <dir>   (then shows getstripe of a file in <dir>)
  lfs getstripe <path>`)
	os.Exit(2)
}

func setstripe(args []string) {
	fs := flag.NewFlagSet("setstripe", flag.ExitOnError)
	count := fs.Int("c", 1, "stripe count (-1 = all OSTs)")
	size := fs.String("S", "1M", "stripe size")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	sz, err := units.ParseBytes(*size)
	if err != nil {
		fatal(err)
	}
	getstripe([]string{pfs.Join(fs.Arg(0), "dat_file.bp4", "data.0")}, *count, sz)
}

// getstripe creates the target on a simulated Dardel with the given
// directory layout and prints its stripe map.
func getstripe(args []string, count int, size int64) {
	if len(args) != 1 {
		usage()
	}
	path := pfs.Clean(args[0])
	dir, _ := pfs.Split(path)
	m := cluster.Dardel()
	k := sim.NewKernel()
	sys, err := m.Build(k, 1, 1)
	if err != nil {
		fatal(err)
	}
	if err := sys.Lustre.SetStripe(dir, count, size); err != nil {
		fatal(err)
	}
	k.Spawn("w", func(p *sim.Proc) {
		env := &posix.Env{FS: sys.FS, Client: sys.Clients[0]}
		fd, err := env.Create(p, path)
		if err != nil {
			fatal(err)
		}
		fd.Write(p, 64<<20, nil)
		fd.Close(p)
	})
	k.Run()
	lay, err := sys.Lustre.GetStripe(path)
	if err != nil {
		fatal(err)
	}
	fmt.Print(lustre.FormatGetStripe(path[1:], lay))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lfs:", err)
	os.Exit(1)
}
