// Explore: discover bugs and cover recovery code without writing a
// single scenario — through the Session API.
//
// One lfi.Session owns the campaign knobs (store root, worker pool,
// budget) and drives the coverage-guided fault-space explorer against
// registered target systems. The explorer enumerates candidate
// injections from the library fault profiles crossed with the call-site
// analysis, schedules them in batches steered toward uncovered recovery
// blocks, and persists outcomes in a store — so a second run
// replays instead of re-executing, and `ExploreAll` fans one session
// out over every registered system at once.
//
//	go run ./examples/explore
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"lfi"
)

func main() {
	storeDir, err := os.MkdirTemp("", "lfi-explore")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(storeDir)
	ctx := context.Background()

	// One session for everything below: shared store root, shared
	// worker pool. Every run drains its whole candidate queue (bred
	// window mutants included), so the resume demos replay everything.
	sess, err := lfi.NewSession(
		lfi.WithStore(filepath.Join(storeDir, "store")),
		lfi.WithLog(os.Stdout),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	// --- minidb: the MySQL stand-in --------------------------------
	//
	// Table 1 finds its two bugs (a double mutex unlock in mi_create's
	// recovery path, a crash on an uninitialized errmsg structure)
	// with hand-seeded random injection. The explorer finds both from
	// first principles.
	minidb, ok := lfi.LookupSystem("minidb")
	if !ok {
		log.Fatal("minidb not registered")
	}
	fmt.Println("=== exploring minidb ===")
	res, err := sess.Explore(ctx, minidb)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res)

	crashes := 0
	for _, b := range res.Bugs {
		if b.IsCrash() {
			crashes++
		}
	}
	fmt.Printf("\n%d crash bugs discovered without any hand-written scenario\n\n", crashes)

	// --- the same run again: nothing to execute --------------------
	//
	// The store keys every outcome by scenario hash + targeted-code
	// hash; with the target unchanged, the second run replays
	// everything and executes no test. Store.Stats (the `lfi explore
	// -v` report) shows the whole cache migrating forward.
	fmt.Println("=== exploring minidb again (resumes from the store) ===")
	res2, err := sess.Explore(ctx, minidb)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("executed %d, replayed %d — the whole campaign came from the store\n", res2.Executed, res2.Replayed)
	fmt.Printf("%s\n\n", res2.StoreStats)

	// --- every registered system in one session --------------------
	//
	// ExploreAll is `lfi explore -all`: one session fans out over the
	// registry with a shared worker pool, the shared store root (so
	// the minidb results above replay for free) and a shared budget,
	// interleaving batches across systems by how many recovery blocks
	// each still has uncovered. The release-build PBFT view-change
	// crash is in the haul — reachable only through the explorer's
	// occurrence-window mutants, since it needs both the REQUEST and
	// the PRE-PREPARE lost.
	fmt.Println("=== exploring every registered system (`lfi explore -all`) ===")
	all, err := sess.ExploreAll(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(all)
	fmt.Println("\ncrash bugs across all systems:")
	for _, b := range all.CrashBugs() {
		fmt.Printf("  %-8s %s\n    found by %s\n", b.System, b.Signature, b.Scenarios[0])
	}
}
