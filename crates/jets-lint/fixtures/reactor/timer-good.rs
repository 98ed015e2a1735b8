fn tally(state: &mut State) {
    state.ticks += 1;
}

fn start(reactor: &Reactor, cell: &Owned) {
    reactor.every(TICK, move || cell.with(tally));
    reactor.post(move || drop(reactor.connect(addr, handler)));
    let members = reactor.call(|| cell.with(|st| st.members.len()));
}
