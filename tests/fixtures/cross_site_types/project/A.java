class A {
    int f(int n, int[] xs) {
        n += xs.length;
        return n;
    }

    String g(String n, int[] xs) {
        n += xs.length;
        return n;
    }
}
