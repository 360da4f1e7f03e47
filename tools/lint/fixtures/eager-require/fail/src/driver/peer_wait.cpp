// Fixture: a peer-wait spin loop whose require() formats a number
// into a std::string on every poll. Must trip eager-require.
void waitForPeer(RankWorld& world, const ChannelId& channel, int gid)
{
    while (!world.receive(channel).has_value()) {
        require(now() < deadline,
                std::string("timed out waiting for block ") +
                    std::to_string(gid));
        yield();
    }
}
