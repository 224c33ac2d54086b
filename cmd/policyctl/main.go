// Command policyctl is the policy administration tool of Section 6.2: it
// parses and integrity-checks policy files, stores them in a repository
// (in-process or over TCP), browses stored bindings, administers manager
// rule sets (dynamic rule distribution), exports LDIF, and can serve a
// repository.
//
// Usage:
//
//	policyctl check  -file policy.pol -exe mpeg_play
//	policyctl add    -file policy.pol -exe mpeg_play -app VideoApplication [-role physician] [-server host:port]
//	policyctl remove -name NotifyQoSViolation -exe mpeg_play [-role r] [-server host:port]
//	policyctl list   [-server host:port]
//	policyctl push   -file policy.pol -exe mpeg_play -server host:port
//	policyctl status -server host:port
//	policyctl rollback [-reason why] -server host:port
//	policyctl export [-server host:port]
//	policyctl serve  -listen 127.0.0.1:7389
//
// Without -server, commands operate on a fresh in-memory repository
// seeded with the demo video-application model (useful for try-out); with
// -server they talk to a repository served by `policyctl serve`.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"

	"softqos/internal/mgmt"
	"softqos/internal/repository"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	var (
		file   = fs.String("file", "", "policy source file")
		exe    = fs.String("exe", "", "target executable")
		app    = fs.String("app", "", "application the executable belongs to")
		role   = fs.String("role", "", "user role binding (empty = any role)")
		name   = fs.String("name", "", "policy name (remove)")
		server = fs.String("server", "", "repository server address (empty = in-memory demo)")
		listen = fs.String("listen", "127.0.0.1:7389", "listen address (serve)")
		reason = fs.String("reason", "", "rollback reason")
	)
	_ = fs.Parse(os.Args[2:])

	switch cmd {
	case "serve":
		dir := repository.NewDirectory(repository.QoSSchema())
		must(mgmt.DefineVideoModel(repository.NewService(repository.LocalStore{Dir: dir})))
		srv, err := repository.ServeDirectory(dir, *listen)
		must(err)
		fmt.Printf("policyctl: repository serving on %s (ctrl-c to stop)\n", srv.Addr())
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
		_ = srv.Close()
		return
	case "check":
		admin, _ := openAdmin(*server)
		src := readFile(*file)
		requireFlag(*exe, "-exe")
		p, errs := admin.ParseAndCheck(src, *exe)
		if p != nil {
			fmt.Printf("parsed policy %s (subject %s, %d actions)\n", p.Name, p.Subject, len(p.Do))
		}
		if len(errs) == 0 {
			fmt.Println("integrity checks passed")
			return
		}
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, " -", e)
		}
		os.Exit(1)
	case "add":
		admin, _ := openAdmin(*server)
		requireFlag(*exe, "-exe")
		must(admin.AddPolicy(readFile(*file), repository.PolicyMeta{
			Application: *app, Executable: *exe, UserRole: *role}))
		fmt.Println("policy stored")
		list(admin)
	case "remove":
		admin, _ := openAdmin(*server)
		requireFlag(*name, "-name")
		requireFlag(*exe, "-exe")
		must(admin.RemovePolicy(*name, repository.PolicyMeta{Executable: *exe, UserRole: *role}))
		fmt.Println("policy removed")
	case "list":
		admin, _ := openAdmin(*server)
		list(admin)
	case "add-rules":
		admin, _ := openAdmin(*server)
		requireFlag(*name, "-name")
		requireFlag(*role, "-role")
		must(admin.AddRuleSet(*name, *role, readFile(*file)))
		fmt.Println("rule set stored")
	case "rules":
		admin, _ := openAdmin(*server)
		requireFlag(*role, "-role")
		named, err := admin.NamedRulesFor(*role)
		must(err)
		if len(named) == 0 {
			fmt.Println("no rule sets stored for role", *role)
		}
		for _, rs := range named {
			fmt.Printf("; rule set %s\n%s\n", rs.Name, rs.Text)
		}
	case "push":
		client := dialServer(*server)
		requireFlag(*exe, "-exe")
		st, err := client.Push(readFile(*file), repository.PolicyMeta{
			Application: *app, Executable: *exe, UserRole: *role})
		must(err)
		printRollout(st)
	case "status":
		client := dialServer(*server)
		cur, history, err := client.RolloutStatus()
		must(err)
		if cur == nil && len(history) == 0 {
			fmt.Println("no rollout recorded")
			return
		}
		if cur != nil {
			printRollout(*cur)
		}
		for i, st := range history {
			fmt.Printf("history[%d]: generation %d (%s@%s) %s: %s\n",
				i, st.Generation, st.Policy, st.Executable, st.State, st.Reason)
		}
	case "rollback":
		client := dialServer(*server)
		st, err := client.Rollback(*reason)
		must(err)
		printRollout(st)
	case "export":
		_, store := openAdmin(*server)
		entries, err := store.Search(repository.BaseDN, repository.ScopeSub, nil)
		must(err)
		must(repository.WriteLDIF(os.Stdout, entries))
	default:
		usage()
	}
}

func list(admin *mgmt.Admin) {
	names, err := admin.Browse()
	must(err)
	if len(names) == 0 {
		fmt.Println("no policy bindings stored")
		return
	}
	fmt.Println("policy bindings:")
	for _, n := range names {
		fmt.Println(" -", n)
	}
}

// dialServer connects to a live repository server; rollout verbs make
// no sense against the throwaway in-memory demo, so -server is
// mandatory for them.
func dialServer(server string) *repository.Client {
	requireFlag(server, "-server")
	client, err := repository.DialDirectory(server)
	must(err)
	return client
}

func printRollout(st repository.RolloutStatus) {
	fmt.Printf("rollout generation %d: policy %s@%s %s\n",
		st.Generation, st.Policy, st.Executable, st.State)
	if len(st.CanaryHosts) > 0 {
		fmt.Printf("  canary hosts: %v\n", st.CanaryHosts)
	}
	if st.FleetGeneration != 0 {
		fmt.Printf("  fleet generation: %d\n", st.FleetGeneration)
	}
	if st.Reason != "" {
		fmt.Printf("  reason: %s\n", st.Reason)
	}
}

// openAdmin returns an Admin over either a TCP repository client or a
// fresh in-memory demo repository.
func openAdmin(server string) (*mgmt.Admin, repository.Store) {
	var store repository.Store
	if server == "" {
		dir := repository.NewDirectory(repository.QoSSchema())
		store = repository.LocalStore{Dir: dir}
		svc := repository.NewService(store)
		// The video-application model, so policies can be validated
		// against real sensors out of the box.
		must(mgmt.DefineVideoModel(svc))
		return mgmt.NewAdmin(svc), store
	}
	client, err := repository.DialDirectory(server)
	must(err)
	return mgmt.NewAdmin(repository.NewService(client)), client
}

func readFile(path string) string {
	requireFlag(path, "-file")
	data, err := os.ReadFile(path)
	must(err)
	return string(data)
}

func requireFlag(v, name string) {
	if v == "" {
		fmt.Fprintf(os.Stderr, "policyctl: %s is required\n", name)
		os.Exit(2)
	}
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "policyctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: policyctl <check|add|remove|list|add-rules|rules|push|status|rollback|export|serve> [flags]
  check     -file policy.pol -exe mpeg_play
  add       -file policy.pol -exe mpeg_play -app VideoApplication [-role r] [-server addr]
  remove    -name Policy -exe mpeg_play [-role r] [-server addr]
  list      [-server addr]
  add-rules -file rules.clp -name base -role host-manager [-server addr]
  rules     -role host-manager [-server addr]
  push      -file policy.pol -exe mpeg_play [-app a] [-role r] -server addr
  status    -server addr
  rollback  [-reason why] -server addr
  export    [-server addr]
  serve     [-listen 127.0.0.1:7389]`)
	os.Exit(2)
}
