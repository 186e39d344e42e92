package vmm

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/enclave"
	"repro/internal/epcman"
	"repro/internal/sgx"
)

// WorkloadFunc drives one enclave worker thread from the untrusted guest
// process; it must loop issuing ecalls until stop is closed, tolerating
// ErrDestroyed/ErrWorkerBusy/ErrMigrating (which occur around migrations).
type WorkloadFunc func(rt *enclave.Runtime, worker int, stop <-chan struct{})

// Process is a guest process hosting one enclave.
type Process struct {
	Name  string
	Image string
	RT    *enclave.Runtime

	workload   WorkloadFunc
	sharedBase uint64
	sharedSize uint64

	mu      sync.Mutex
	stop    chan struct{}
	wg      sync.WaitGroup
	running bool

	// resumed is closed once every call a restore resumed on the target has
	// completed; nil for a process that was launched, not migrated in.
	// Until then those calls own their workers and TCSs.
	resumed chan struct{}

	// quiesced is when PrepareAllEnclaves last saw the enclave reach its
	// quiescent point: from then on it serves no call until its restore
	// elsewhere (LiveMigrationStats.EnclaveUnavailable).
	quiesced time.Time
}

// PlainProcess is a guest process without an enclave: it just dirties guest
// memory, standing in for the ordinary applications in the VM.
type PlainProcess struct {
	Name string

	mem       *GuestMemory
	base      uint64
	pages     int
	writeRate time.Duration

	stop chan struct{}
	wg   sync.WaitGroup
}

// OS is the guest operating system: it owns the in-guest SGX driver (an
// epcman.Manager over hypervisor-granted frames), the process table, and
// the migration fan-out of Fig. 8 steps 2-6.
type OS struct {
	Name string

	mach  *sgx.Machine
	host  *enclave.Host
	mem   *GuestMemory
	reg   *core.Registry
	vcpus chan struct{}

	mu        sync.Mutex
	procs     []*Process      // guarded by mu
	plain     []*PlainProcess // guarded by mu
	allocOff  uint64          // guarded by mu
	migrating bool            // guarded by mu
}

// NewOS boots a guest OS.
//   - mach:   the physical machine (reached through hypercalls)
//   - source: the hypervisor's EPC grant hypercall
//   - disp:   the machine fault dispatcher
//   - mem:    guest physical memory
//   - reg:    the deployment registry visible inside this guest
func NewOS(name string, mach *sgx.Machine, source epcman.FrameSource, disp *epcman.Dispatcher, mem *GuestMemory, reg *core.Registry, vcpus int) *OS {
	mgr := epcman.New(mach, nil)
	mgr.SetFrameSource(source)
	if vcpus <= 0 {
		vcpus = 4
	}
	return &OS{
		Name:  name,
		mach:  mach,
		host:  &enclave.Host{Mgr: mgr, Disp: disp},
		mem:   mem,
		reg:   reg,
		vcpus: make(chan struct{}, vcpus),
	}
}

// Host returns the guest's enclave-hosting platform.
func (o *OS) Host() *enclave.Host { return o.host }

// Memory returns guest physical memory.
func (o *OS) Memory() *GuestMemory { return o.mem }

// Registry returns the in-guest deployment registry.
func (o *OS) Registry() *core.Registry { return o.reg }

// VCPUs returns the virtual CPU count.
func (o *OS) VCPUs() int { return cap(o.vcpus) }

// RunOnVCPU executes fn while holding a VCPU slot, modelling scheduler
// contention (the Fig. 9(c) knee past 4 enclaves × 3 threads on 4 VCPUs).
func (o *OS) RunOnVCPU(fn func()) {
	o.vcpus <- struct{}{}
	defer func() { <-o.vcpus }()
	fn()
}

// allocShared reserves a window of guest memory for a process's shared
// region.
func (o *OS) allocShared(size uint64) (uint64, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	// Reserve the low 1 MiB for "kernel" use, then bump-allocate.
	if o.allocOff == 0 {
		o.allocOff = 1 << 20
	}
	base := o.allocOff
	if base+size > uint64(o.mem.Bytes()) {
		return 0, fmt.Errorf("vmm: guest memory exhausted for shared regions")
	}
	o.allocOff = base + size
	return base, nil
}

// LaunchEnclaveProcess creates a process hosting image, provisions it with
// the owner if given, and starts its workload loops.
func (o *OS) LaunchEnclaveProcess(name, image string, owner *core.Owner, workload WorkloadFunc) (*Process, error) {
	dep, ok := o.reg.Lookup(image)
	if !ok {
		return nil, fmt.Errorf("vmm: image %q not deployed in guest %s", image, o.Name)
	}
	size := uint64(enclave.SharedSizeFor(appLayout(dep.App)))
	base, err := o.allocShared(size)
	if err != nil {
		return nil, err
	}
	region, err := o.mem.Region(base, size)
	if err != nil {
		return nil, err
	}
	rt, err := enclave.BuildSigned(o.host, dep.App, dep.Sig, enclave.WithShared(region))
	if err != nil {
		return nil, err
	}
	if owner != nil {
		if err := owner.Provision(rt); err != nil {
			_ = rt.Destroy()
			return nil, err
		}
	}
	p := &Process{
		Name:       name,
		Image:      image,
		RT:         rt,
		workload:   workload,
		sharedBase: base,
		sharedSize: size,
	}
	o.mu.Lock()
	o.procs = append(o.procs, p)
	o.mu.Unlock()
	p.start()
	return p, nil
}

func appLayout(app *enclave.App) enclave.Layout {
	nssa := app.NSSA
	if nssa == 0 {
		nssa = 3
	}
	return enclave.Layout{Threads: app.Workers + 1, NSSA: nssa, DataPages: app.DataPages, HeapPages: app.HeapPages}
}

func (p *Process) start() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.running || p.workload == nil {
		return
	}
	p.stop = make(chan struct{})
	p.running = true
	for w := 0; w < p.RT.App().Workers; w++ {
		p.wg.Add(1)
		go func(worker int) {
			defer p.wg.Done()
			p.workload(p.RT, worker, p.stop)
		}(w)
	}
}

// Stop halts the process's workload loops and waits for the calls a
// restore resumed, so that on return no goroutine of this process is
// inside the enclave: every worker can be entered and the enclave destroyed.
func (p *Process) Stop() {
	p.mu.Lock()
	if p.running {
		close(p.stop)
		p.running = false
		p.mu.Unlock()
		p.wg.Wait()
	} else {
		p.mu.Unlock()
	}
	if p.resumed != nil {
		<-p.resumed
	}
}

// LaunchPlainProcess starts a non-enclave process that dirties `pages`
// guest pages starting at a private window, one write every writeRate.
func (o *OS) LaunchPlainProcess(name string, pages int, writeRate time.Duration) (*PlainProcess, error) {
	base, err := o.allocShared(uint64(pages) * PageSize)
	if err != nil {
		return nil, err
	}
	p := &PlainProcess{
		Name:      name,
		mem:       o.mem,
		base:      base,
		pages:     pages,
		writeRate: writeRate,
		stop:      make(chan struct{}),
	}
	o.mu.Lock()
	o.plain = append(o.plain, p)
	o.mu.Unlock()
	p.wg.Add(1)
	go p.run()
	return p, nil
}

func (p *PlainProcess) run() {
	defer p.wg.Done()
	rng := rand.New(rand.NewSource(int64(p.base)))
	buf := make([]byte, 64)
	ticker := time.NewTicker(p.writeRate)
	defer ticker.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-ticker.C:
			page := rng.Intn(p.pages)
			rng.Read(buf)
			_ = p.mem.Write(p.base+uint64(page)*PageSize, buf)
		}
	}
}

// Stop halts the plain process.
func (p *PlainProcess) Stop() {
	select {
	case <-p.stop:
	default:
		close(p.stop)
	}
	p.wg.Wait()
}

// Processes returns the enclave process table.
func (o *OS) Processes() []*Process {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]*Process, len(o.procs))
	copy(out, o.procs)
	return out
}

// StopAll pauses every process (the VM's stop-and-copy moment).
func (o *OS) StopAll() {
	for _, p := range o.Processes() {
		p.Stop()
	}
	o.StopPlain()
}

// StopPlain pauses only the non-enclave processes. During a live migration
// the enclave workers are parked inside their spin regions and only come
// back (or die with the source instance) once the per-enclave migration
// completes, so their host loops are stopped afterwards.
func (o *OS) StopPlain() {
	o.mu.Lock()
	plain := append([]*PlainProcess(nil), o.plain...)
	o.mu.Unlock()
	for _, p := range plain {
		p.Stop()
	}
}

// PrepareAllEnclaves implements Fig. 8 steps 2-6: the guest OS refuses new
// enclaves, signals every enclave process (SIGUSR1 analogue), and waits
// until every control thread reports its enclave ready. It returns the
// total dumping latency (the Fig. 9(d) metric) and the per-enclave
// checkpoint blobs.
func (o *OS) PrepareAllEnclaves(opts *core.Options) (map[string][]byte, time.Duration, error) {
	o.mu.Lock()
	if o.migrating {
		o.mu.Unlock()
		return nil, 0, errors.New("vmm: migration already in progress")
	}
	o.migrating = true
	procs := append([]*Process(nil), o.procs...)
	o.mu.Unlock()

	start := time.Now()
	blobs := make(map[string][]byte, len(procs))
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
	)
	for _, p := range procs {
		wg.Add(1)
		go func(p *Process) {
			defer wg.Done()
			var blob []byte
			err := func() error {
				o.RunOnVCPU(func() {}) // scheduling slot for the signal
				encOpts := *opts
				encOpts.EnclaveID = p.Name
				if _, err := core.Prepare(p.RT, &encOpts); err != nil {
					return err
				}
				p.quiesced = time.Now()
				var err error
				blob, _, err = core.Dump(p.RT, &encOpts)
				return err
			}()
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("vmm: enclave %s: %w", p.Name, err)
			}
			blobs[p.Name] = blob
		}(p)
	}
	wg.Wait()
	if firstErr != nil {
		o.CancelMigration()
		return nil, 0, firstErr
	}
	return blobs, time.Since(start), nil
}

// CancelMigration resumes all enclaves after an aborted migration.
func (o *OS) CancelMigration() {
	for _, p := range o.Processes() {
		_ = core.Cancel(p.RT)
	}
	o.mu.Lock()
	o.migrating = false
	o.mu.Unlock()
}
