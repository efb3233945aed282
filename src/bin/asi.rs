//! `asi` — the ActorSpace interactive shell.
//!
//! A REPL over the prototype's behavior language (§7): type expressions,
//! define behaviors at run time, create actors, make them visible, and
//! send pattern-directed messages — against a live multi-threaded
//! [`ActorSystem`].
//!
//! ```text
//! $ cargo run --bin asi
//! asi> (+ 1 2)
//! 3
//! asi> (behavior echo (out) (on m (send-addr out m)))
//! behavior `echo` loaded
//! asi> (define e (create echo out))
//! actor:5
//! asi> (send-addr e "hello")
//! ()
//! [inbox] "hello"
//! ```
//!
//! The REPL itself runs *inside an actor* (a driver), so every actor
//! primitive is available. `out` is pre-bound to an inbox whose deliveries
//! print asynchronously; `arena` is pre-bound to a scratch actorSpace.

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use actorspace::interp::{eval_with_ctx, parse_all, BehaviorLib, Env, Sexp};
use actorspace::prelude::*;
use actorspace_lockcheck::{LockClass, Mutex};

/// Messages the driver actor understands.
enum Request {
    Eval(Sexp),
    SwapLib(Arc<BehaviorLib>),
}

fn main() {
    let system = ActorSystem::new(Config::default());
    let arena = system.create_space(None).expect("create arena space");
    let (inbox, inbox_rx) = system.inbox();

    // Channels between the REPL loop and the driver actor.
    let (req_tx, req_rx) = mpsc::channel::<Request>();
    let (resp_tx, resp_rx) = mpsc::channel::<String>();

    // The driver: evaluates submitted expressions with full actor powers
    // and a persistent environment.
    let mut lib = Arc::new(BehaviorLib::default());
    let driver_lib = Arc::new(Mutex::new(LockClass::Other("asi.driver_lib"), lib.clone()));
    let driver = {
        let driver_lib = driver_lib.clone();
        let mut base = HashMap::new();
        base.insert("out".to_owned(), Value::Addr(inbox));
        base.insert("arena".to_owned(), Value::Space(arena));
        let mut env = Env::with_base(base);
        system.spawn(from_fn(move |ctx, _msg| {
            // Drain all queued requests in one activation.
            while let Ok(req) = req_rx.try_recv() {
                match req {
                    Request::SwapLib(new_lib) => {
                        *driver_lib.lock() = new_lib;
                        let _ = resp_tx.send("behaviors loaded".to_owned());
                    }
                    Request::Eval(expr) => {
                        let lib = driver_lib.lock().clone();
                        let out = match eval_with_ctx(&lib, &mut env, ctx, &expr) {
                            Ok((v, _become)) => format!("{v}"),
                            Err(e) => format!("error: {e}"),
                        };
                        let _ = resp_tx.send(out);
                    }
                }
            }
        }))
    };

    // Asynchronous inbox printer.
    let running = Arc::new(AtomicBool::new(true));
    let printer = {
        let running = running.clone();
        std::thread::spawn(move || {
            while running.load(Ordering::Acquire) {
                match inbox_rx.recv_timeout(Duration::from_millis(100)) {
                    Ok(m) => println!("[inbox] {}", m.body),
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            }
        })
    };

    println!("asi — ActorSpace interactive shell");
    println!("  `out` = your inbox address   `arena` = a scratch actorSpace");
    println!("  (behavior …) forms load into the library; :help for commands");

    let stdin = std::io::stdin();
    let mut pending = String::new();
    loop {
        if pending.is_empty() {
            print!("asi> ");
        } else {
            print!("...> ");
        }
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(_) => break,
        }
        let trimmed = line.trim();
        if pending.is_empty() {
            match trimmed {
                ":quit" | ":q" => break,
                ":help" => {
                    println!("  expressions     (+ 1 2), (create <behavior> args…), (send \"pat\" arena msg)…");
                    println!("  (behavior …)    define/replace a behavior in the library");
                    println!("  :behaviors      list loaded behaviors");
                    println!("  :stats          system counters");
                    println!("  :spaces         per-space membership and queues");
                    println!("  :quit           exit");
                    continue;
                }
                ":behaviors" => {
                    let names: Vec<&str> = lib.names().collect();
                    println!(
                        "  {}",
                        if names.is_empty() {
                            "(none)".to_owned()
                        } else {
                            names.join(", ")
                        }
                    );
                    continue;
                }
                ":stats" => {
                    let s = system.stats();
                    println!(
                        "  actors={} spaces={} pending={} dead_letters={}",
                        s.actors, s.spaces, s.pending, s.dead_letters
                    );
                    continue;
                }
                ":spaces" => {
                    for id in system.space_ids() {
                        if let Ok(info) = system.space_info(id) {
                            println!(
                                "  {id}: {} actors, {} sub-spaces, {} suspended, {} persistent{}",
                                info.actor_members,
                                info.space_members,
                                info.pending_messages,
                                info.persistent_broadcasts,
                                if info.guarded { ", guarded" } else { "" },
                            );
                        }
                    }
                    continue;
                }
                "" => continue,
                _ => {}
            }
        }
        pending.push_str(&line);
        // Keep reading until parentheses balance.
        if !parens_balanced(&pending) {
            continue;
        }
        let source = std::mem::take(&mut pending);
        match parse_all(&source) {
            Err(e) => println!("parse error: {e}"),
            Ok(forms) => {
                for form in forms {
                    if is_behavior_form(&form) {
                        // Extend a fresh snapshot of the current library
                        // with this definition (libraries behind `Arc` are
                        // immutable; the driver swaps atomically).
                        let mut next = clone_lib(&lib);
                        match next.load_more(&form.to_string()) {
                            Ok(()) => {
                                lib = Arc::new(next);
                                req_tx.send(Request::SwapLib(lib.clone())).ok();
                                driver.send(Value::Unit);
                                match resp_rx.recv_timeout(Duration::from_secs(10)) {
                                    Ok(_) => println!("behavior loaded"),
                                    Err(_) => println!("error: driver did not respond"),
                                }
                            }
                            Err(e) => println!("load error: {e}"),
                        }
                    } else {
                        req_tx.send(Request::Eval(form)).ok();
                        driver.send(Value::Unit);
                        match resp_rx.recv_timeout(Duration::from_secs(30)) {
                            Ok(out) => println!("{out}"),
                            Err(_) => println!("error: evaluation timed out"),
                        }
                    }
                }
            }
        }
        // Give async deliveries a moment to print before the next prompt.
        std::thread::sleep(Duration::from_millis(20));
    }

    running.store(false, Ordering::Release);
    printer.join().ok();
    system.shutdown();
}

fn parens_balanced(s: &str) -> bool {
    let mut depth = 0i64;
    let mut in_str = false;
    let mut escaped = false;
    for c in s.chars() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            ';' => break, // rest-of-line comment; good enough for the REPL
            '(' => depth += 1,
            ')' => depth -= 1,
            _ => {}
        }
    }
    depth <= 0
}

fn is_behavior_form(form: &Sexp) -> bool {
    form.as_list()
        .and_then(|l| l.first())
        .and_then(Sexp::as_sym)
        == Some("behavior")
}

/// Rebuilds a library with the same definitions (BehaviorLib holds parsed
/// definitions; regenerate via their stored structure).
fn clone_lib(lib: &BehaviorLib) -> BehaviorLib {
    let mut out = BehaviorLib::default();
    for name in lib.names() {
        let def = lib.get(name).expect("listed name exists");
        // Reassemble the source form and reload it.
        let mut src = format!("(behavior {name} (");
        src.push_str(&def.params.join(" "));
        src.push(')');
        if !def.init.is_empty() {
            src.push_str(" (init");
            for e in &def.init {
                src.push(' ');
                src.push_str(&e.to_string());
            }
            src.push(')');
        }
        src.push_str(&format!(" (on {}", def.msg_var));
        for e in &def.body {
            src.push(' ');
            src.push_str(&e.to_string());
        }
        src.push_str("))");
        out.load_more(&src).expect("regenerated source parses");
    }
    out
}
