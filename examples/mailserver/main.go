// Mail server: the paper's Fig. 6 fork attack, live.
//
// A mail server runs in an enclave. A client (1) drafts a mail to
// {Alice, Bob, Eve}, (2) removes Eve, (3) sends. A malicious cloud operator
// migrates the enclave right after step (1) and then tries to keep BOTH
// instances alive: route step (2) to the old (source) instance and step (3)
// to the new one, so the mail still goes to Eve.
//
// The defence: self-destroy + single secure channel. After the migration
// key is released, the source instance refuses every ecall, so the operator
// cannot replay or split the history — there is exactly one timeline.
package main

import (
	"errors"
	"fmt"
	"log"

	"repro"
	"repro/internal/enclave"
	"repro/internal/sim"
)

// Mail server trusted application.
//
// Heap layout: recipients bitmask (u64) at heap+0, status (u64) at heap+8.
const (
	selCreate = 0 // R1 = recipient bitmask; drafts the mail
	selDelete = 1 // R1 = recipient bit to remove
	selSend   = 2 // sends; R0 = bitmask actually sent to
)

const (
	alice = 1 << 0
	bob   = 1 << 1
	eve   = 1 << 2
)

func mailApp() *enclave.App {
	return &enclave.App{
		Name:        "mailserver",
		CodeVersion: "v1",
		Workers:     1,
		HeapPages:   1,
		ECalls: []enclave.ECallFn{
			func(c *enclave.Call) enclave.AppStatus { // create
				if c.Store64(c.HeapBase(), c.Regs[1]) != nil {
					return enclave.AppAbort
				}
				if c.Store64(c.HeapBase()+8, 0 /* draft */) != nil {
					return enclave.AppAbort
				}
				return enclave.AppDone
			},
			func(c *enclave.Call) enclave.AppStatus { // delete recipient
				r, err := c.Load64(c.HeapBase())
				if err != nil {
					return enclave.AppAbort
				}
				if c.Store64(c.HeapBase(), r&^c.Regs[1]) != nil {
					return enclave.AppAbort
				}
				return enclave.AppDone
			},
			func(c *enclave.Call) enclave.AppStatus { // send
				r, err := c.Load64(c.HeapBase())
				if err != nil {
					return enclave.AppAbort
				}
				if c.Store64(c.HeapBase()+8, 1 /* sent */) != nil {
					return enclave.AppAbort
				}
				c.Regs[0] = r
				return enclave.AppDone
			},
		},
	}
}

func names(mask uint64) string {
	out := ""
	if mask&alice != 0 {
		out += "Alice "
	}
	if mask&bob != 0 {
		out += "Bob "
	}
	if mask&eve != 0 {
		out += "Eve "
	}
	if out == "" {
		return "(nobody)"
	}
	return out
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	w, err := sim.NewWorld(2)
	if err != nil {
		return err
	}
	dep := w.Deploy(mailApp())
	src, err := w.Launch(dep, 0)
	if err != nil {
		return err
	}
	// Op-1: the client drafts the mail.
	if _, err := src.ECall(0, selCreate, alice|bob|eve); err != nil {
		return err
	}
	fmt.Printf("op-1 on source: draft created, recipients = %s\n", names(alice|bob|eve))

	// The malicious operator migrates the enclave NOW, planning to fork.
	inc, err := sgxmig.Migrate(src, w.Hosts[1], w.Registry, w.Opts())
	if err != nil {
		return err
	}
	fmt.Println("operator migrated the enclave to the target machine")

	// The fork: route op-2 (delete Eve) to the SOURCE instance so the
	// target never learns about it.
	_, err = src.ECall(0, selDelete, eve)
	if !errors.Is(err, enclave.ErrDestroyed) {
		return fmt.Errorf("FORK SUCCEEDED: the source instance accepted op-2 (err=%v)", err)
	}
	fmt.Printf("fork attempt: op-2 routed to the source instance -> refused (%v)\n", err)
	fmt.Println("the client never receives an ack for op-2 from the forked instance;")
	fmt.Println("it retries against the live (target) instance:")

	// The one real timeline: op-2 and op-3 on the target.
	if _, err := inc.Runtime.ECall(0, selDelete, eve); err != nil {
		return err
	}
	fmt.Printf("op-2 on target: Eve removed\n")
	res, err := inc.Runtime.ECall(0, selSend)
	if err != nil {
		return err
	}
	fmt.Printf("op-3 on target: mail sent to %s\n", names(res[0]))
	if res[0]&eve != 0 {
		return errors.New("mail leaked to Eve")
	}
	fmt.Println("Eve never received the mail: single-instance property held (P-5)")
	return nil
}
