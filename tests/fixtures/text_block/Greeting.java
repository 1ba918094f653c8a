class Greeting {
    String banner(String name) {
        String text = """
            Hello, "%s"!
            \"""quoted\""" and \\ kept
            """;
        return text.formatted(name);
    }

    int width(String line) {
        return line.length();
    }
}
